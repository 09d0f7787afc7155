package temporal

import (
	"math"
	"reflect"
	"testing"

	"loadimb/internal/trace"
)

// regionEvent builds a well-formed event for the per-region fold tests.
func regionEvent(rank int, region, activity string, start, end float64) trace.Event {
	return trace.Event{Rank: rank, Region: region, Activity: activity, Start: start, End: end}
}

func TestFoldPerRegionVectors(t *testing.T) {
	f := NewFold(Options{Window: 1.0, PerRegion: true})
	// Rank 0 spends [0, 1.5) in "solve", rank 1 spends [0.5, 1) in "halo":
	// window 0 gets solve=[1,0], halo=[0,0.5]; window 1 gets solve=[0.5,0].
	f.Add(regionEvent(0, "solve", "computation", 0, 1.5))
	f.Add(regionEvent(1, "halo", "p2p", 0.5, 1))
	ser := f.Series()
	if got := ser.RegionNames(); !reflect.DeepEqual(got, []string{"halo", "solve"}) {
		t.Fatalf("RegionNames = %v", got)
	}
	if len(ser.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(ser.Windows))
	}
	w0 := ser.Windows[0]
	if !reflect.DeepEqual(w0.PerRegion["solve"], []float64{1, 0}) {
		t.Errorf("window 0 solve = %v", w0.PerRegion["solve"])
	}
	if !reflect.DeepEqual(w0.PerRegion["halo"], []float64{0, 0.5}) {
		t.Errorf("window 0 halo = %v", w0.PerRegion["halo"])
	}
	w1 := ser.Windows[1]
	if !reflect.DeepEqual(w1.PerRegion["solve"], []float64{0.5, 0}) {
		t.Errorf("window 1 solve = %v", w1.PerRegion["solve"])
	}
	if _, ok := w1.PerRegion["halo"]; ok {
		t.Errorf("window 1 unexpectedly has a halo vector: %v", w1.PerRegion["halo"])
	}
}

func TestFoldPerRegionOffByDefault(t *testing.T) {
	f := NewFold(Options{Window: 1.0, PerActivity: true})
	f.Add(regionEvent(0, "solve", "computation", 0, 1))
	ser := f.Series()
	if ser.RegionNames() != nil {
		t.Fatalf("RegionNames = %v, want nil when PerRegion is off", ser.RegionNames())
	}
	if ser.Windows[0].PerRegion != nil {
		t.Fatalf("PerRegion = %v, want nil", ser.Windows[0].PerRegion)
	}
}

func TestRegionSeriesProjection(t *testing.T) {
	f := NewFold(Options{Window: 1.0, PerRegion: true})
	f.Add(regionEvent(0, "solve", "computation", 0, 1))
	f.Add(regionEvent(1, "halo", "p2p", 0, 0.25))
	f.Add(regionEvent(2, "solve", "computation", 1, 1.75))
	ser := f.Series()
	proj := ser.RegionSeries("solve")
	if proj.Procs != 3 || len(proj.Windows) != 2 {
		t.Fatalf("projection shape: procs=%d windows=%d", proj.Procs, len(proj.Windows))
	}
	if !reflect.DeepEqual(proj.Windows[0].ProcSeconds, []float64{1, 0, 0}) {
		t.Errorf("solve window 0 = %v", proj.Windows[0].ProcSeconds)
	}
	if !reflect.DeepEqual(proj.Windows[1].ProcSeconds, []float64{0, 0, 0.75}) {
		t.Errorf("solve window 1 = %v", proj.Windows[1].ProcSeconds)
	}
	// A region absent from a window projects to all zeros there, keeping
	// the trajectory aligned with the aggregate (null-ID idle semantics).
	halo := ser.RegionSeries("halo")
	if !reflect.DeepEqual(halo.Windows[1].ProcSeconds, []float64{0, 0, 0}) {
		t.Errorf("halo window 1 = %v", halo.Windows[1].ProcSeconds)
	}
	st := halo.Stats()
	if st[1].ID != nil {
		t.Errorf("halo window 1 ID = %v, want null", *st[1].ID)
	}
}

func TestMergePerRegionNamespacing(t *testing.T) {
	mk := func(region string, busy float64) *Series {
		return &Series{
			Window: 1.0, Procs: 2,
			Windows: []WindowVector{{
				Index:       0,
				Events:      1,
				ProcSeconds: []float64{busy, 0},
				PerRegion:   map[string][]float64{region: {busy, 0}},
			}},
		}
	}
	merged, err := Merge([]JobWindows{
		{Procs: 2, Series: mk("solve", 1), Label: "jobA"},
		{Procs: 2, Series: mk("solve", 2), Label: "jobB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.RegionNames(); !reflect.DeepEqual(got, []string{"jobA/solve", "jobB/solve"}) {
		t.Fatalf("merged RegionNames = %v", got)
	}
	w := merged.Windows[0]
	if !reflect.DeepEqual(w.PerRegion["jobA/solve"], []float64{1, 0, 0, 0}) {
		t.Errorf("jobA/solve = %v", w.PerRegion["jobA/solve"])
	}
	if !reflect.DeepEqual(w.PerRegion["jobB/solve"], []float64{0, 0, 2, 0}) {
		t.Errorf("jobB/solve = %v", w.PerRegion["jobB/solve"])
	}
}

func TestMergePerRegionUnlabeledKeysCollide(t *testing.T) {
	// Without labels, same-named regions from different jobs accumulate
	// into one merged key — the documented opt-out.
	mk := func(busy float64) *Series {
		return &Series{
			Window: 1.0, Procs: 1,
			Windows: []WindowVector{{
				Index:       0,
				ProcSeconds: []float64{busy},
				PerRegion:   map[string][]float64{"solve": {busy}},
			}},
		}
	}
	merged, err := Merge([]JobWindows{
		{Procs: 1, Series: mk(1)},
		{Procs: 1, Series: mk(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.RegionNames(); !reflect.DeepEqual(got, []string{"solve"}) {
		t.Fatalf("merged RegionNames = %v", got)
	}
	if !reflect.DeepEqual(merged.Windows[0].PerRegion["solve"], []float64{1, 2}) {
		t.Fatalf("solve = %v", merged.Windows[0].PerRegion["solve"])
	}
}

func TestMergePerRegionOverlongVectorErrors(t *testing.T) {
	ser := &Series{
		Window: 1.0, Procs: 2,
		Windows: []WindowVector{{
			Index:       0,
			ProcSeconds: []float64{1, 0},
			PerRegion:   map[string][]float64{"solve": {1, 0, 0.5}},
		}},
	}
	_, err := Merge([]JobWindows{{Procs: 2, Series: ser, Label: "jobA"}, {Procs: 1}})
	if err == nil {
		t.Fatal("expected an error for nonzero region busy time beyond the declared processor count")
	}
}

func TestPhaseSummaryRoundTrip(t *testing.T) {
	ph := Phase{FirstWindow: 2, LastWindow: 5, Start: 1, End: 3, Windows: 4, MeanID: 0.25, Label: LabelHot}
	f := NewFold(Options{Window: 0.5})
	f.Add(regionEvent(1, "r", "a", 1, 3))
	sums := SummarizePhases(f.Series(), []Phase{ph})
	if len(sums) != 1 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if got := sums[0].Phase(); got != ph {
		t.Fatalf("PhaseSummary.Phase() = %+v, want %+v", got, ph)
	}
	if math.IsNaN(sums[0].Gini) {
		t.Fatal("summary Gini is NaN")
	}
}
