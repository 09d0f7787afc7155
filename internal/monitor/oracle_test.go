package monitor

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"loadimb/internal/diagnose"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// refSummarizePhases is SummarizePhases as it was computed before the
// per-activity IDs were taken straight from the window vectors: through a
// full ActivitySeries projection and its Stats, kept as the oracle the
// projection-free summary must match bit for bit.
func refSummarizePhases(ser *temporal.Series, phases []temporal.Phase) []temporal.PhaseSummary {
	if ser == nil || len(phases) == 0 {
		return nil
	}
	actNames := ser.ActivityNames()
	actStats := make(map[string][]temporal.WindowStat, len(actNames))
	actMean := make(map[string]float64, len(actNames))
	for _, a := range actNames {
		st := ser.ActivitySeries(a).Stats()
		actStats[a] = st
		sum, defined := 0.0, 0
		for _, w := range st {
			if w.ID != nil {
				sum += *w.ID
				defined++
			}
		}
		if defined > 0 {
			actMean[a] = sum / float64(defined)
		}
	}
	out := make([]temporal.PhaseSummary, 0, len(phases))
	pos := 0
	for _, ph := range phases {
		sum := temporal.PhaseSummary{
			FirstWindow: ph.FirstWindow,
			LastWindow:  ph.LastWindow,
			Start:       ph.Start,
			End:         ph.End,
			Windows:     ph.Windows,
			MeanID:      ph.MeanID,
			Label:       ph.Label,
		}
		for pos < len(ser.Windows) && ser.Windows[pos].Index < ph.FirstWindow {
			pos++
		}
		first := pos
		busy := make([]float64, ser.Procs)
		for pos < len(ser.Windows) && ser.Windows[pos].Index <= ph.LastWindow {
			for p, t := range ser.Windows[pos].ProcSeconds {
				if p < len(busy) {
					busy[p] += t
				}
			}
			pos++
		}
		if id, err := stats.EuclideanFromBalance(busy); err == nil {
			sum.ID = &id
		}
		sum.Gini = temporal.GiniOf(busy)
		for _, a := range actNames {
			st := actStats[a]
			mean, defined := 0.0, 0
			for i := first; i < pos && i < len(st); i++ {
				if st[i].ID != nil {
					mean += *st[i].ID
					defined++
				}
			}
			if defined == 0 {
				continue
			}
			mean /= float64(defined)
			if mean >= actMean[a] && mean > 0 {
				sum.HotActivities = append(sum.HotActivities, a)
			}
		}
		sort.Strings(sum.HotActivities)
		out = append(out, sum)
	}
	return out
}

// checkSnapshotOracles fails if any of the snapshot's cached or memoized
// analyses differs from its stateless recomputation: the trajectories
// from the fold's summary cache against the series' own Stats and
// CoarseStats, the cached dimension names against the series' own, the
// phase summaries (from the cached per-activity indices) against
// SummarizePhases and refSummarizePhases, and the memoized diagnosis
// (with its reused fingerprint rows) against a fresh Diagnose.
func checkSnapshotOracles(t *testing.T, snap *Snapshot) {
	t.Helper()
	if snap.Series == nil {
		return
	}
	if !reflect.DeepEqual(snap.Windows, snap.Series.Stats()) {
		t.Errorf("generation %d: trajectory differs from Series.Stats", snap.Gen)
	}
	if !reflect.DeepEqual(snap.Coarse, snap.Series.CoarseStats()) {
		t.Errorf("generation %d: coarse trajectory differs from Series.CoarseStats", snap.Gen)
	}
	if got, want := snap.traj.ActivityNames(), snap.Series.ActivityNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("generation %d: cached activity names %q, want %q", snap.Gen, got, want)
	}
	if got, want := snap.traj.RegionNames(), snap.Series.RegionNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("generation %d: cached region names %q, want %q", snap.Gen, got, want)
	}
	phases := make([]temporal.Phase, len(snap.Phases))
	for i, ps := range snap.Phases {
		phases[i] = ps.Phase()
	}
	if want := temporal.SummarizePhases(snap.Series, phases); !reflect.DeepEqual(snap.Phases, want) {
		t.Errorf("generation %d: phase summaries differ from SummarizePhases:\ngot  %+v\nwant %+v", snap.Gen, snap.Phases, want)
	}
	if want := refSummarizePhases(snap.Series, phases); !reflect.DeepEqual(snap.Phases, want) {
		t.Errorf("generation %d: phase summaries differ from the projection reference:\ngot  %+v\nwant %+v", snap.Gen, snap.Phases, want)
	}
	if got, want := snap.Diagnosis(), diagnose.Diagnose(snap.Series, phases, diagnose.Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("generation %d: memoized diagnosis differs from Diagnose:\ngot  %+v\nwant %+v", snap.Gen, got, want)
	}
}

// checkDeltas fails unless, for every earlier generation in kept, the
// LIFP delta from it to snap, applied to it, reproduces snap's cube and
// series bit for bit: the /delta diff answers windows that share their
// vectors without reading them, and must still find every change.
func checkDeltas(t *testing.T, kept []*Snapshot, snap *Snapshot) {
	t.Helper()
	cur := &tracefmt.DeltaState{Boot: snap.Boot, Gen: snap.Gen, Cube: snap.Cube, Series: snap.Series}
	for _, old := range kept {
		if old.Gen >= snap.Gen {
			continue
		}
		prev := &tracefmt.DeltaState{Boot: old.Boot, Gen: old.Gen, Cube: old.Cube, Series: old.Series}
		doc, err := tracefmt.EncodeSnapshotDelta(prev, cur)
		if err != nil {
			t.Errorf("delta %d→%d: %v", old.Gen, snap.Gen, err)
			continue
		}
		got, err := tracefmt.DecodeSnapshot(doc, prev)
		if err != nil {
			t.Errorf("delta %d→%d: %v", old.Gen, snap.Gen, err)
			continue
		}
		if !cubeBitsEqual(got.Cube, snap.Cube) {
			t.Errorf("delta %d→%d: applied cube differs from the snapshot's", old.Gen, snap.Gen)
		}
		if !reflect.DeepEqual(got.Series, snap.Series) {
			t.Errorf("delta %d→%d: applied series differs from the snapshot's", old.Gen, snap.Gen)
		}
	}
}

// cubeBitsEqual reports whether two cubes have the same axes, cells and
// program time, bit for bit.
func cubeBitsEqual(a, b *trace.Cube) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !reflect.DeepEqual(a.Regions(), b.Regions()) || !reflect.DeepEqual(a.Activities(), b.Activities()) ||
		a.NumProcs() != b.NumProcs() || math.Float64bits(a.ProgramTime()) != math.Float64bits(b.ProgramTime()) {
		return false
	}
	for i := 0; i < a.NumRegions(); i++ {
		for j := 0; j < a.NumActivities(); j++ {
			av, _ := a.ProcTimes(i, j)
			bv, _ := b.ProcTimes(i, j)
			for p := range av {
				if math.Float64bits(av[p]) != math.Float64bits(bv[p]) {
					return false
				}
			}
		}
	}
	return true
}

// TestSnapshotCachesMatchOracles checks every generation of a collector
// whose small window cap shifts the ring — and with it the phase
// ordinals — while a straggler alternates between two ranks, a new rank
// joins mid-run, and late events rewrite an early phase of the ring and a
// sealed coarse window.
func TestSnapshotCachesMatchOracles(t *testing.T) {
	c := NewCollector(Options{Window: 1, WindowCap: 24})
	var kept []*Snapshot
	ranks := 6
	for w := 0; w < 120; w++ {
		if w == 60 {
			ranks = 7
		}
		straggler := 1 + (w/8)%2
		for r := 0; r < ranks; r++ {
			work := 0.3 + 0.01*float64(r)
			if r == straggler {
				work *= 2.5
			}
			t0 := float64(w)
			c.Record(trace.Event{Rank: r, Region: "solve", Activity: "computation", Start: t0, End: t0 + 0.7*work})
			c.Record(trace.Event{Rank: r, Region: "halo", Activity: "communication", Start: t0 + 0.7*work, End: t0 + work})
		}
		if w%10 == 9 {
			prev := c.Latest()
			ring := prev.Series.Windows
			late := ring[1].Index // an early phase of the ring
			c.Record(trace.Event{Rank: 0, Region: "solve", Activity: "computation", Start: float64(late) + 0.95, End: float64(late) + 0.99})
			if prev.Series.CoarseWindow > 0 {
				c.Record(trace.Event{Rank: 3, Region: "halo", Activity: "communication", Start: 0.96, End: 0.98})
			}
		}
		snap := c.Snapshot()
		checkSnapshotOracles(t, snap)
		checkDeltas(t, kept, snap)
		kept = append(kept, snap)
	}
	snap := c.Latest()
	if snap.Series.CoarseWindow <= 2*snap.Series.Window {
		t.Fatalf("coarse width %g: the stream never re-decimated the coarse tail", snap.Series.CoarseWindow)
	}
	if len(snap.Phases) < 3 || len(snap.Diagnosis().Findings) == 0 {
		t.Fatalf("%d phases, %d findings: the stream should segment and diagnose", len(snap.Phases), len(snap.Diagnosis().Findings))
	}
}

// TestSummarizePhasesMergedSeries runs the projection reference on a
// federated series in which one job never ran an activity: that
// activity's merged vectors are zero on the other job's ranks, and the
// windows where neither job ran it carry no vector at all. A copy whose
// vectors for that activity stop at the last rank that ran it must
// summarize identically: ranks missing from a vector are idle.
func TestSummarizePhasesMergedSeries(t *testing.T) {
	fold := func(procs int, activities []string) *temporal.Series {
		f := temporal.NewFold(temporal.Options{Window: 1, PerActivity: true})
		for w := 0; w < 40; w++ {
			hot := (w / 10) % 2
			for r := 0; r < procs; r++ {
				t0 := float64(w)
				for k, a := range activities {
					d := 0.2 + 0.02*float64(r)
					if r == hot && k == 0 {
						d *= 2
					}
					if k == 1 && w%7 == 3 {
						continue // some windows without the second activity at all
					}
					f.Add(trace.Event{Rank: r, Region: "r", Activity: a, Start: t0 + 0.45*float64(k), End: t0 + 0.45*float64(k) + d})
				}
			}
		}
		return f.Series()
	}
	merged, err := temporal.Merge([]temporal.JobWindows{
		{Series: fold(3, []string{"compute", "wait"}), Label: "a"},
		{Series: fold(2, []string{"compute"}), Label: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := temporal.Segment(merged.Stats(), 0)
	got := temporal.SummarizePhases(merged, phases)
	if want := refSummarizePhases(merged, phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged phase summaries differ from the projection reference:\ngot  %+v\nwant %+v", got, want)
	}
	hot := 0
	for _, ps := range got {
		hot += len(ps.HotActivities)
	}
	if len(got) < 2 || hot == 0 {
		t.Fatalf("%d phases with %d hot activities: the series should segment", len(got), hot)
	}

	// The same series with the "wait" vectors cut to the ranks of the job
	// that ran it: the missing ranks are idle, so the summary must not
	// change.
	trimmed := *merged
	trimmed.Windows = append([]temporal.WindowVector(nil), merged.Windows...)
	for i := range trimmed.Windows {
		w := &trimmed.Windows[i]
		acts := make(map[string][]float64, len(w.PerActivity))
		for a, vec := range w.PerActivity {
			if a == "wait" {
				vec = vec[:3]
			}
			acts[a] = vec
		}
		w.PerActivity = acts
	}
	if got2 := temporal.SummarizePhases(&trimmed, phases); !reflect.DeepEqual(got2, got) {
		t.Fatalf("trimmed activity vectors changed the summaries:\ngot  %+v\nwant %+v", got2, got)
	}
	if want := refSummarizePhases(&trimmed, phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("trimmed series differs from the projection reference:\ngot  %+v\nwant %+v", got, want)
	}
}
