package monitor

import (
	"fmt"
	"sync"

	"loadimb/internal/core"
	"loadimb/internal/diagnose"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// Snapshot is an immutable view of everything the collector has folded
// in: the live measurement cube, event counters, and the windowed
// imbalance trajectory. Snapshots are safe to share between goroutines;
// none of their fields are mutated after publication.
type Snapshot struct {
	// Cube is the live t_ijp cube, aggregated exactly as an offline
	// Log.Aggregate of the same events would be. It is nil until the
	// first event has been folded.
	Cube *trace.Cube
	// Events is the number of events folded into Cube — exactly the
	// events the cube accounts for, never including ones recorded
	// concurrently with the snapshot. Dropped is the number of malformed
	// events rejected up to the fold.
	Events, Dropped uint64
	// Span is the largest event end time seen — the live estimate of
	// the program wall clock time.
	Span float64
	// CellStats[i][j] is the streaming summary of the individual event
	// durations of cell (i, j) — the per-operation statistics the cube
	// (which only keeps sums) cannot answer.
	CellStats [][]stats.Accumulator
	// Windows is the temporal imbalance trajectory, one entry per
	// non-empty window in time order; empty when windowing is disabled.
	// For a bounded (decimated) series this is the retained
	// full-resolution ring; Coarse carries the older trajectory.
	Windows []WindowStat
	// Coarse is the trajectory of the decimated tail of a bounded window
	// series — the pre-ring history at Series.CoarseWindow resolution.
	// Nil until the run outgrows the window cap.
	Coarse []WindowStat
	// Series holds the raw per-window per-processor busy vectors the
	// trajectory was computed from — the mergeable document served at
	// /windows.json, which the federation layer combines across
	// endpoints. It is nil when windowing is disabled.
	Series *temporal.Series
	// Phases is the live phase segmentation of the trajectory — the
	// streaming PELT optimum over Windows, identical to what the offline
	// Segment finds on the same trajectory — enriched with per-phase
	// dispersion indices and hot activities (served at /phases.json).
	// Empty when windowing is disabled or no window is non-empty.
	Phases []temporal.PhaseSummary
	// Gen is the fold generation of the snapshot: it increases every time
	// a publisher builds a snapshot with new content. Two snapshots from
	// the same source with equal Gen are the same snapshot, so scrape
	// handlers can skip recomputation entirely.
	Gen uint64
	// Boot distinguishes the publishing process incarnation: Gen restarts
	// from zero when a collector restarts, so scrapers cache on the
	// (Boot, Gen) pair — the snapshot ETag — never on Gen alone. 0 for
	// snapshots built outside a publisher (tests constructing literals).
	Boot uint64
	// RankLabels optionally names each rank for display in diagnosis
	// findings. The collector leaves it nil (ranks are just numbers); the
	// federation layer sets job-namespaced labels ("job/3") before
	// publishing, matching the merged cube's rank space.
	RankLabels []string

	// views memoizes the dispersion views of Cube: the first scrape of a
	// snapshot computes them once, every later handler and endpoint reuses
	// them. Snapshots are immutable, so the memo can never go stale.
	viewsOnce sync.Once
	views     *Views
	viewsErr  error

	// diag memoizes the snapshot's diagnosis the same way: the collector
	// re-serves the identical Snapshot pointer while its Gen is unchanged,
	// so the diagnosis is recomputed only when the fold content actually
	// moved — the amortization the live endpoints rely on. memo is the
	// publishing collector's per-phase memo, which makes that recomputation
	// re-cluster only the phases whose input changed; nil (a stateless
	// diagnosis) for snapshots built elsewhere.
	diagOnce sync.Once
	diag     *diagnose.Report
	memo     *diagnose.Memo
	// traj is the fold trajectory Series came from, with its per-window
	// caches; nil for snapshots built elsewhere.
	traj *temporal.Trajectory
}

// Views holds the paper's dispersion views of one snapshot cube — exactly
// what core.Analyze computes for the same cube, shared by every scrape
// handler of the snapshot.
type Views struct {
	// Cells is the ID_ij matrix (Table 2).
	Cells [][]core.CellDispersion
	// Activities is the activity view (Table 3).
	Activities []core.ActivitySummary
	// Regions is the code-region view (Table 4).
	Regions []core.RegionSummary
	// Processors is the processor view (Section 3.1).
	Processors *core.ProcessorView
}

// ETag returns the snapshot's entity tag: the (boot, generation) pair
// that identifies its content. Gen alone would be ambiguous — it
// restarts from zero with the publishing process — so the boot nonce is
// part of the tag; a scraper that caches on the ETag therefore refetches
// after a restart instead of treating the reset as "unchanged". Empty
// for snapshots without a boot nonce (hand-built test literals).
func (s *Snapshot) ETag() string {
	if s.Boot == 0 {
		return ""
	}
	return `"` + tracefmt.SnapshotTag(s.Boot, s.Gen) + `"`
}

// Views returns the dispersion views of the snapshot cube, computing them
// on the first call and memoizing the result; concurrent callers share
// one computation. It returns (nil, nil) while the snapshot has no cube.
func (s *Snapshot) Views() (*Views, error) {
	s.viewsOnce.Do(func() {
		if s.Cube == nil {
			return
		}
		v := &Views{}
		if v.Cells, s.viewsErr = core.Dispersions(s.Cube, core.Options{}); s.viewsErr != nil {
			return
		}
		if v.Activities, s.viewsErr = core.ActivityViewFromCells(s.Cube, v.Cells); s.viewsErr != nil {
			return
		}
		if v.Regions, s.viewsErr = core.CodeRegionViewFromCells(s.Cube, v.Cells); s.viewsErr != nil {
			return
		}
		if v.Processors, s.viewsErr = core.NewProcessorView(s.Cube, core.Options{}); s.viewsErr != nil {
			return
		}
		s.views = v
	})
	return s.views, s.viewsErr
}

// Diagnosis returns the automatic performance diagnosis of the snapshot
// — per-phase rank cohorts and divergence findings over the window
// series — computing it on the first call and memoizing the result, the
// same amortization as Views: while the fold generation is unchanged the
// collector re-serves this very snapshot, so concurrent scrapes of
// /diagnose.json, /metrics and the dashboard share one computation per
// Gen. It returns nil when windowing is disabled.
func (s *Snapshot) Diagnosis() *diagnose.Report {
	s.diagOnce.Do(func() {
		if s.Series == nil {
			return
		}
		phases := make([]temporal.Phase, len(s.Phases))
		for i, ps := range s.Phases {
			phases[i] = ps.Phase()
		}
		opts := diagnose.Options{RankLabels: s.RankLabels}
		if s.traj != nil {
			s.diag = s.memo.DiagnoseTrajectory(s.traj, phases, opts)
		} else {
			s.diag = s.memo.Diagnose(s.Series, phases, opts)
		}
	})
	return s.diag
}

// WindowStat summarizes one temporal window of the run; it is the
// shared windowing engine's summary type, re-exported so existing
// consumers of the monitor API keep compiling unchanged.
type WindowStat = temporal.WindowStat

// build assembles an immutable snapshot from the current fold state.
func (s *foldState) build(events, dropped, gen uint64) *Snapshot {
	snap := &Snapshot{Events: events, Dropped: dropped, Span: s.span, Gen: gen}
	if regions, activities := s.regions.List(), s.activities.List(); len(regions) > 0 && len(activities) > 0 && s.procs > 0 {
		cube, err := trace.NewCube(regions, activities, s.procs)
		if err != nil {
			// Names were deduplicated by the index maps and dims
			// checked above; construction cannot fail.
			panic(fmt.Sprintf("monitor: building snapshot cube: %v", err))
		}
		for i := range s.totals {
			for j := range s.totals[i] {
				for p, t := range s.totals[i][j] {
					if err := cube.Set(i, j, p, t); err != nil {
						panic(fmt.Sprintf("monitor: snapshot cell (%d,%d,%d): %v", i, j, p, err))
					}
				}
			}
		}
		// Same convention as Log.Aggregate: the program wall clock is
		// the longest rank timeline when that exceeds the instrumented
		// total.
		if s.span > cube.RegionsTotal() {
			if err := cube.SetProgramTime(s.span); err != nil {
				panic(fmt.Sprintf("monitor: snapshot program time: %v", err))
			}
		}
		// Marginals are computed once at fold time; every scrape handler
		// then reads them O(1) instead of rescanning the cube.
		cube.Precompute()
		snap.Cube = cube
		snap.CellStats = make([][]stats.Accumulator, len(s.durs))
		for i := range s.durs {
			snap.CellStats[i] = append([]stats.Accumulator(nil), s.durs[i]...)
		}
	}
	if s.tw != nil {
		// The trajectories, the per-activity window indices and the
		// dimension names come from the fold's per-window cache: only the
		// windows that changed since the last build are summarized again.
		snap.traj = s.tw.Trajectory()
		snap.Series, snap.Windows, snap.Coarse = snap.traj.Series, snap.traj.Ring, snap.traj.Coarse
		snap.Phases = snap.traj.SummarizePhases(temporal.Segment(snap.Windows, s.penalty))
	}
	return snap
}

// giniOf is stats.Gini.Of with tiny negative cancellation noise clamped;
// the clamp lives with the shared windowing engine.
func giniOf(vals []float64) float64 { return temporal.GiniOf(vals) }

// ProcTotals returns the per-processor total instrumented times of the
// snapshot cube — the vector whose Lorenz curve and Gini coefficient the
// exposition endpoints serve. It returns nil before any event arrived.
func (s *Snapshot) ProcTotals() []float64 {
	if s.Cube == nil {
		return nil
	}
	out := make([]float64, s.Cube.NumProcs())
	for p := range out {
		t, err := s.Cube.ProcTotalTime(p)
		if err != nil {
			// p is in range by construction.
			panic(fmt.Sprintf("monitor: proc total %d: %v", p, err))
		}
		out[p] = t
	}
	return out
}
