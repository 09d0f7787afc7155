package diagnose

import (
	"math"
	"reflect"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// stragglerSeries folds a synthetic two-phase run over procs ranks:
// phase A (4 windows) is balanced computation; in phase B (4 windows)
// every rank adds p2p time, with rank `culprit` spending extra seconds
// in it per window. The imbalance level shift makes the segmentation
// cut between the phases.
func stragglerSeries(t *testing.T, procs, culprit int, extra float64) (*temporal.Series, []temporal.Phase) {
	t.Helper()
	f := temporal.NewFold(temporal.Options{Window: 1.0, PerActivity: true, PerRegion: true})
	for w := 0; w < 8; w++ {
		lo := float64(w)
		for p := 0; p < procs; p++ {
			f.Add(trace.Event{Rank: p, Region: "solve", Activity: "computation", Start: lo, End: lo + 0.5})
			if w >= 4 {
				d := 0.2
				if p == culprit {
					d += extra
				}
				f.Add(trace.Event{Rank: p, Region: "halo", Activity: "p2p", Start: lo + 0.5, End: lo + 0.5 + d})
			}
		}
	}
	ser := f.Series()
	phases := temporal.Segment(ser.Stats(), 0)
	return ser, phases
}

func TestDiagnoseLocalizesStraggler(t *testing.T) {
	ser, phases := stragglerSeries(t, 16, 5, 0.25)
	rep := Diagnose(ser, phases, Options{})
	if rep.Procs != 16 || rep.Window != 1.0 {
		t.Fatalf("report header: procs=%d window=%g", rep.Procs, rep.Window)
	}
	wantDims := []Dimension{
		{Name: "computation", Kind: KindActivity},
		{Name: "p2p", Kind: KindActivity},
		{Name: "halo", Kind: KindRegion},
		{Name: "solve", Kind: KindRegion},
	}
	if !reflect.DeepEqual(rep.Dimensions, wantDims) {
		t.Fatalf("dimensions = %+v", rep.Dimensions)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings for an injected straggler")
	}
	top := rep.Findings[0]
	if top.Rank != 5 {
		t.Fatalf("top finding rank = %d, want 5 (findings: %+v)", top.Rank, rep.Findings)
	}
	if len(top.Dominant) == 0 {
		t.Fatal("top finding has no attribution")
	}
	lead := top.Dominant[0]
	if lead.Dimension != "p2p" && lead.Dimension != "halo" {
		t.Errorf("dominant dimension = %s/%s, want p2p or halo", lead.Kind, lead.Dimension)
	}
	if lead.Delta <= 0 {
		t.Errorf("dominant delta = %g, want positive (extra time)", lead.Delta)
	}
	if lead.Percent == nil || *lead.Percent <= 0 {
		t.Errorf("dominant percent = %v, want positive", lead.Percent)
	}
	if top.Summary == "" {
		t.Error("empty summary")
	}
	// The straggler must not be flagged in the balanced phase.
	for _, f := range rep.Findings {
		if f.Phase == 1 {
			t.Errorf("finding in the balanced phase: %+v", f)
		}
	}
}

func TestDiagnoseSingletonCohortReported(t *testing.T) {
	// A huge divergence isolates the culprit in its own cohort; it must
	// be reported against the nearest real cohort, not dropped.
	ser, phases := stragglerSeries(t, 16, 13, 0.3)
	rep := Diagnose(ser, phases, Options{})
	var hit *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Rank == 13 {
			hit = &rep.Findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("rank 13 not in findings: %+v", rep.Findings)
	}
	if !hit.Lone {
		t.Skipf("clustering kept rank 13 in the main cohort (score %.1f); lone path not exercised", hit.Score)
	}
	if hit.CohortSize < 2 {
		t.Errorf("lone finding's reference cohort size = %d, want >= 2", hit.CohortSize)
	}
	if math.IsNaN(hit.Score) || math.IsInf(hit.Score, 0) || hit.Score <= 0 {
		t.Errorf("lone finding score = %v", hit.Score)
	}
}

func TestDiagnoseDegenerateInputs(t *testing.T) {
	if rep := Diagnose(nil, nil, Options{}); rep == nil || len(rep.Findings) != 0 {
		t.Fatalf("nil series: %+v", rep)
	}
	empty := &temporal.Series{Window: 1, Procs: 0}
	if rep := Diagnose(empty, nil, Options{}); len(rep.Findings) != 0 || len(rep.Phases) != 0 {
		t.Fatalf("empty series: %+v", rep)
	}
	// Single rank: nothing to compare against.
	f := temporal.NewFold(temporal.Options{Window: 1, PerActivity: true})
	f.Add(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 3})
	ser := f.Series()
	rep := Diagnose(ser, temporal.Segment(ser.Stats(), 0), Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("single-rank findings: %+v", rep.Findings)
	}
	// All-idle phase: one cohort of everyone, no findings, no NaN.
	f2 := temporal.NewFold(temporal.Options{Window: 1, PerActivity: true})
	f2.Add(trace.Event{Rank: 3, Region: "r", Activity: "a", Start: 0.5, End: 0.5})
	ser2 := f2.Series()
	rep2 := Diagnose(ser2, temporal.Segment(ser2.Stats(), 0), Options{})
	if len(rep2.Findings) != 0 {
		t.Fatalf("all-idle findings: %+v", rep2.Findings)
	}
	for _, pd := range rep2.Phases {
		if len(pd.Cohorts) != 1 || len(pd.Cohorts[0].Ranks) != 4 {
			t.Fatalf("all-idle phase cohorts: %+v", pd.Cohorts)
		}
	}
}

func TestDiagnoseTwoRanksNoFalseFinding(t *testing.T) {
	// With two ranks a split makes both singletons; neither has a real
	// cohort to be read against, so divergence is undefined — no
	// findings rather than two arbitrary ones.
	ser, phases := stragglerSeries(t, 2, 1, 0.25)
	rep := Diagnose(ser, phases, Options{})
	for _, f := range rep.Findings {
		if f.Lone {
			t.Fatalf("lone finding without a real reference cohort: %+v", f)
		}
	}
}

func TestDiagnoseRankLabels(t *testing.T) {
	ser, phases := stragglerSeries(t, 8, 2, 0.25)
	labels := []string{"a/0", "a/1", "a/2", "a/3", "b/0", "b/1", "b/2", "b/3"}
	rep := Diagnose(ser, phases, Options{RankLabels: labels})
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	top := rep.Findings[0]
	if top.RankLabel != "a/2" {
		t.Errorf("rank label = %q, want a/2", top.RankLabel)
	}
	if want := "rank a/2 "; len(top.Summary) < len(want) || top.Summary[:len(want)] != want {
		t.Errorf("summary = %q, want it to open with %q", top.Summary, want)
	}
}

func TestDiagnoseDeterministic(t *testing.T) {
	ser, phases := stragglerSeries(t, 16, 9, 0.2)
	a := Diagnose(ser, phases, Options{})
	b := Diagnose(ser, phases, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical diagnoses differ")
	}
}

func TestDiagnoseAggregateFallback(t *testing.T) {
	// A series without per-activity/per-region vectors still diagnoses
	// on the aggregate busy dimension.
	f := temporal.NewFold(temporal.Options{Window: 1})
	for w := 0; w < 6; w++ {
		lo := float64(w)
		for p := 0; p < 8; p++ {
			d := 0.4
			if w >= 3 && p == 6 {
				d = 0.9
			}
			f.Add(trace.Event{Rank: p, Region: "r", Activity: "a", Start: lo, End: lo + d})
		}
	}
	ser := f.Series()
	rep := Diagnose(ser, temporal.Segment(ser.Stats(), 0), Options{})
	if want := []Dimension{{Name: "busy", Kind: KindTotal}}; !reflect.DeepEqual(rep.Dimensions, want) {
		t.Fatalf("dimensions = %+v", rep.Dimensions)
	}
	if len(rep.Findings) == 0 || rep.Findings[0].Rank != 6 {
		t.Fatalf("findings = %+v, want rank 6 on top", rep.Findings)
	}
}

// TestMemoReusesOnlyUnchangedPhases: a Memo returns exactly Diagnose's
// report on every call, reusing a phase's cohorts only while its whole
// input — phase, ordinal, dimensions, options and fingerprints — is
// unchanged. The second series moves time between activities on one rank
// of the last window without changing its busy total, so the trajectory
// and the phases stay identical and only the fingerprints tell the
// difference.
func TestMemoReusesOnlyUnchangedPhases(t *testing.T) {
	ser, phases := stragglerSeries(t, 16, 5, 0.25)
	if len(phases) < 2 {
		t.Fatalf("%d phases, want at least 2", len(phases))
	}
	var m Memo
	check := func(what string, ser *temporal.Series, phases []temporal.Phase, opts Options) *Report {
		t.Helper()
		got := m.Diagnose(ser, phases, opts)
		if want := Diagnose(ser, phases, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memo report differs from Diagnose:\ngot  %+v\nwant %+v", what, got, want)
		}
		return got
	}
	// reused reports whether phase i of b took a's cohorts.
	reused := func(a, b *Report, i int) bool {
		return len(a.Phases[i].Cohorts) > 0 && &a.Phases[i].Cohorts[0] == &b.Phases[i].Cohorts[0]
	}
	last := len(phases) - 1

	r1 := check("first call", ser, phases, Options{})
	r2 := check("same input", ser, phases, Options{})
	for i := range phases {
		if !reused(r1, r2, i) {
			t.Errorf("phase %d re-clustered on an unchanged input", i+1)
		}
	}

	ser2 := *ser
	ser2.Windows = append([]temporal.WindowVector(nil), ser.Windows...)
	w := &ser2.Windows[len(ser2.Windows)-1]
	w.PerActivity = map[string][]float64{
		"computation": append([]float64(nil), w.PerActivity["computation"]...),
		"p2p":         append([]float64(nil), w.PerActivity["p2p"]...),
	}
	w.PerActivity["computation"][9] -= 0.3
	w.PerActivity["p2p"][9] += 0.3
	if !reflect.DeepEqual(temporal.Segment(ser2.Stats(), 0), phases) {
		t.Fatal("moving time between activities changed the segmentation")
	}
	r3 := check("changed fingerprints", &ser2, phases, Options{})
	if !reused(r2, r3, 0) {
		t.Error("an unchanged phase was re-clustered")
	}
	if reused(r2, r3, last) {
		t.Error("the phase whose fingerprints changed was reused")
	}

	labels := make([]string, 16)
	for i := range labels {
		labels[i] = "job/" + string(rune('a'+i))
	}
	r4 := check("new options", &ser2, phases, Options{RankLabels: labels})
	if reused(r3, r4, 0) {
		t.Error("a phase was reused across different options")
	}
	labels[5] = "renamed"
	check("labels mutated by the caller", &ser2, phases, Options{RankLabels: labels})
	check("shifted ordinals", &ser2, phases[1:], Options{RankLabels: labels})
}
