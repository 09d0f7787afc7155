package main

import (
	"math"
	"testing"
)

// around returns ten runs of median m spread ±spread.
func around(m, spread float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = m + spread*(float64(i%5)-2)/2
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change []float64
		better       string
		bound        float64
		verdict      string
	}{
		{"clear gain", around(100, 2), around(80, 2), "lower", 0.1, verdictBetter},
		{"gain on a higher-is-better metric", around(100, 2), around(120, 2), "higher", 0.1, verdictBetter},
		{"regression past the bound", around(100, 2), around(120, 2), "lower", 0.1, verdictWorse},
		{"loss on a higher-is-better metric", around(100, 2), around(80, 2), "higher", 0.1, verdictWorse},
		{"small move inside the bound", around(100, 2), around(103, 2), "lower", 0.1, verdictWithin},
		{"gain within the parent's own spread", around(100, 8), around(97, 8), "lower", 0.15, verdictWithin},
		{"spread wider than the bound", around(100, 40), around(101, 40), "lower", 0.1, verdictUnresolved},
		{"wide spread but every change run better", around(100, 40), around(30, 10), "lower", 0.1, verdictBetter},
		{"no bound, no clear move", around(100, 2), around(101, 2), "lower", 0, verdictNoClaim},
		{"no bound, clear loss", around(100, 2), around(130, 2), "lower", 0, verdictWorse},
	} {
		if j := judge(tc.base, tc.change, tc.better, tc.bound); j.verdict != tc.verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, j.verdict, tc.verdict, j)
		}
	}
}

func TestJudgeNeedsNineWinsInTen(t *testing.T) {
	base := around(100, 2)
	change := around(80, 2)
	// Two pairs where the change loses: 8 of 10 wins is not a gain, even
	// though the medians are far apart.
	change[0], change[1] = 200, 200
	j := judge(base, change, "lower", 0.5)
	if j.wins != 8 || j.verdict == verdictBetter {
		t.Fatalf("8/10 wins judged %q (wins %d)", j.verdict, j.wins)
	}
	change[1] = 80
	if j := judge(base, change, "lower", 0.5); j.wins != 9 || j.verdict != verdictBetter {
		t.Fatalf("9/10 wins judged %q (wins %d)", j.verdict, j.wins)
	}
}

func TestJudgeTiesCountForNeither(t *testing.T) {
	base := around(100, 2)
	j := judge(base, append([]float64(nil), base...), "lower", 0.1)
	if j.wins != 0 || j.verdict != verdictWithin {
		t.Fatalf("identical runs: wins %d verdict %q", j.wins, j.verdict)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	for _, tc := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(tc.vals)
		for i, got := range []float64{q1, m, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.vals, q1, m, q3, tc.want)
				break
			}
		}
	}
}
