package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"loadimb/internal/stats"
	"loadimb/internal/trace"
)

func TestScatterShapeHitsImbalance(t *testing.T) {
	for _, ranks := range []int{2, 8, 64} {
		for _, imb := range []float64{1, 1.5, 2, float64(ranks)} {
			rng := rand.New(rand.NewSource(int64(ranks) * 31))
			work, err := scatterShape(rng, ranks, imb)
			if err != nil {
				t.Fatal(err)
			}
			var total, worst float64
			for _, w := range work {
				if w < 0 {
					t.Fatalf("ranks %d imbalance %g: negative work %v", ranks, imb, work)
				}
				total += w
				worst = math.Max(worst, w)
			}
			if got := worst / (total / float64(ranks)); math.Abs(got-imb) > 1e-9*imb {
				t.Errorf("ranks %d: max/mean %.12g, want %g", ranks, got, imb)
			}
		}
	}
	if _, err := scatterShape(rand.New(rand.NewSource(1)), 4, 5); err == nil {
		t.Error("imbalance above the rank count was accepted")
	}
}

func TestRankWorkHitsTargetID(t *testing.T) {
	// The largest reachable ID_P shrinks with the rank count: along the
	// scatter shape's direction the lightest rank reaches zero work first.
	targets := map[int][]float64{8: {0, 0.05, 0.1, 0.2}, 64: {0, 0.02, 0.05}, 128: {0, 0.01, 0.02}}
	for seed := int64(1); seed <= 20; seed++ {
		for ranks, ts := range targets {
			if _, err := rankWork(rand.New(rand.NewSource(seed)), ranks, 0.9); err == nil {
				t.Errorf("seed %d ranks %d: unreachable ID_P 0.9 accepted", seed, ranks)
			}
			for _, target := range ts {
				work, err := rankWork(rand.New(rand.NewSource(seed)), ranks, target)
				if err != nil {
					t.Fatal(err)
				}
				id, err := stats.EuclideanFromBalance(work)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(id-target) > 1e-12 {
					t.Errorf("seed %d ranks %d: ID_P %.17g, want %g", seed, ranks, id, target)
				}
			}
		}
	}
}

// stream is the event stream a seed generates: per-rank work spread over
// random cells, one iteration.
func stream(t *testing.T, seed int64) []trace.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	work, err := rankWork(rng, 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cells := randomCells(rng, names("r", 3), names("a", 2))
	return appendIteration(nil, work, cells, 0, 0, false)
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := stream(t, 7), stream(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different streams")
	}
	if reflect.DeepEqual(a, stream(t, 8)) {
		t.Fatal("different seeds generated the same stream")
	}
}

func TestAppendIterationTotals(t *testing.T) {
	cells := randomCells(rand.New(rand.NewSource(3)), names("r", 4), names("a", 3))
	for _, integral := range []bool{false, true} {
		work := []float64{17, 40, 3, 25}
		events := appendIteration(nil, work, cells, 10, 100, integral)
		if len(events) != len(work)*len(cells) {
			t.Fatalf("%d events, want %d", len(events), len(work)*len(cells))
		}
		got := make([]float64, len(work))
		for _, e := range events {
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
			d := e.End - e.Start
			if integral && d != math.Round(d) {
				t.Fatalf("integral iteration has duration %v", d)
			}
			got[e.Rank-10] += d
		}
		for p, w := range work {
			if math.Abs(got[p]-w) > 1e-12*w {
				t.Errorf("integral=%v: rank %d busy %v, want %v", integral, p, got[p], w)
			}
		}
	}
}
