package temporal

import (
	"reflect"
	"sort"

	"loadimb/internal/stats"
)

// Series is the windowed decomposition of a run: one busy vector per
// non-empty window, in time order. It is the wire document the monitor
// serves at /windows.json and the unit the federation layer merges —
// unlike WindowStat it keeps the per-processor vectors, so merged
// cluster-wide indices can be computed exactly instead of being
// approximated from per-job summaries.
type Series struct {
	// Window is the window width in virtual seconds.
	Window float64 `json:"window"`
	// Procs is the processor count; every busy vector has this length.
	Procs int `json:"procs"`
	// Windows holds the non-empty windows in ascending index order. When
	// the series is bounded (CoarseWindow > 0) these are the retained
	// ring: the most recent windows at full resolution, bit-identical to
	// what an unbounded fold of the same events would hold for them.
	Windows []WindowVector `json:"windows"`

	// The retention fields below are only set for a bounded series whose
	// history exceeded its window cap; an unbounded (or not yet
	// decimated) series omits them, keeping the wire format unchanged.

	// CoarseWindow is the width, in virtual seconds, of the decimated
	// windows in Coarse: Window times a power of two, doubling every time
	// the coarse tail itself outgrows the cap. 0 while nothing has been
	// decimated.
	CoarseWindow float64 `json:"coarse_window,omitempty"`
	// Coarse holds the pre-ring trajectory at CoarseWindow resolution:
	// every base window older than RingStart folded 2:1 (repeatedly) into
	// coarser vectors. Each coarse window equals the exact windows of its
	// span resampled to the coarser width — busy time is additive over
	// window unions — except the last one, which may cover only the part
	// of its span below RingStart (the rest is still in the ring).
	Coarse []WindowVector `json:"coarse,omitempty"`
	// RingStart is the base window index where full resolution begins:
	// windows at or after it are exact ring members, everything before it
	// lives in Coarse. Meaningful only when CoarseWindow > 0.
	RingStart int `json:"ring_start,omitempty"`
}

// WindowVector is one window's raw accumulation.
type WindowVector struct {
	// Index is the window number; the window covers virtual time
	// [Index·dt, (Index+1)·dt).
	Index int `json:"index"`
	// Events is the number of (possibly clipped) events in the window.
	Events int `json:"events"`
	// ProcSeconds[p] is processor p's busy time within the window.
	ProcSeconds []float64 `json:"busy"`
	// Dominant is the activity with the largest busy time in the
	// window, when the fold tracked activities; "" otherwise.
	Dominant string `json:"dominant,omitempty"`
	// PerActivity[a][p] is processor p's busy time spent in activity a
	// within the window, when the fold recorded per-activity vectors
	// (Options.PerActivity); absent otherwise. Vectors have the series'
	// processor count, like ProcSeconds.
	PerActivity map[string][]float64 `json:"per_activity,omitempty"`
	// PerRegion[r][p] is processor p's busy time spent in code region r
	// within the window, when the fold recorded per-region vectors
	// (Options.PerRegion); absent otherwise. In a federated series the
	// keys are job-namespaced ("job/region"), matching the merged cube.
	PerRegion map[string][]float64 `json:"per_region,omitempty"`
}

// SameVectors reports whether a and b hold the same vectors by reference:
// the same busy array and the same per-activity and per-region maps. Such
// windows hold the same bits, so a comparison can answer without reading
// a float. The fold never edits a built vector (it builds a new one), so
// for its windows this also means unchanged since the vector was built.
func SameVectors(a, b *WindowVector) bool {
	return len(a.ProcSeconds) == len(b.ProcSeconds) &&
		(len(a.ProcSeconds) == 0 || &a.ProcSeconds[0] == &b.ProcSeconds[0]) &&
		sameMap(a.PerActivity, b.PerActivity) && sameMap(a.PerRegion, b.PerRegion)
}

// sameMap reports whether a and b are one map (or both nil).
func sameMap(a, b map[string][]float64) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// WindowStat summarizes one temporal window of the run: how busy each
// processor was within it and how dispersed those busy times are. A
// rising ID across windows is temporal imbalance the whole-run indices
// average away.
type WindowStat struct {
	// Index is the window number; the window covers virtual time
	// [Start, End).
	Index int     `json:"index"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Events is the number of (possibly clipped) events in the window.
	Events int `json:"events"`
	// Busy is the total processor-seconds spent in the window.
	Busy float64 `json:"busy"`
	// ID is the paper's Euclidean index of dispersion of the
	// standardized per-processor busy times within the window. It is nil
	// — served as an explicit JSON null — when the dispersion is
	// undefined, i.e. when the window recorded no busy time at all (only
	// zero-duration events): an all-idle window has no load to disperse,
	// which is not the same thing as a perfectly balanced one.
	ID *float64 `json:"id"`
	// Gini is the Gini coefficient of the per-processor busy times.
	Gini float64 `json:"gini"`
	// Dominant is the window's dominant activity when the fold tracked
	// activities; omitted from the JSON otherwise, keeping the live
	// monitor's wire format unchanged.
	Dominant string `json:"dominant,omitempty"`
}

// Stats computes the imbalance trajectory of the series: per window the
// total busy time, the ID of the per-processor busy vector (null for
// all-idle windows), the Gini coefficient, and the dominant activity
// when tracked. For a bounded series this is the trajectory of the
// retained full-resolution ring; CoarseStats covers the decimated tail.
func (s *Series) Stats() []WindowStat {
	if s == nil {
		return nil
	}
	return statsOf(s.Windows, s.Window)
}

// CoarseStats computes the trajectory of the decimated tail of a bounded
// series, at CoarseWindow resolution; nil while nothing has been
// decimated. Within each coarse window the indices are computed over the
// summed busy vectors — exactly the indices of the underlying exact
// windows resampled to the coarser width.
func (s *Series) CoarseStats() []WindowStat {
	if s == nil || s.CoarseWindow <= 0 {
		return nil
	}
	return statsOf(s.Coarse, s.CoarseWindow)
}

// statsOf summarizes one window sequence at the given width — the shared
// body of Stats and CoarseStats.
func statsOf(windows []WindowVector, width float64) []WindowStat {
	if len(windows) == 0 {
		return nil
	}
	out := make([]WindowStat, 0, len(windows))
	for i := range windows {
		out = append(out, statOf(&windows[i], width))
	}
	return out
}

// statOf summarizes one window at the given width: the one per-window
// summary, which the Fold also caches per accumulator (Fold.Trajectory).
func statOf(v *WindowVector, width float64) WindowStat {
	ws := WindowStat{
		Index:    v.Index,
		Start:    float64(v.Index) * width,
		End:      float64(v.Index+1) * width,
		Events:   v.Events,
		Dominant: v.Dominant,
	}
	ws.Busy = stats.Sum(v.ProcSeconds)
	// Ranks idle for the whole window count as zeros: an idle
	// processor is the imbalance, not missing data.
	if id, err := stats.EuclideanFromBalance(v.ProcSeconds); err == nil {
		ws.ID = &id
	}
	ws.Gini = GiniOf(v.ProcSeconds)
	return ws
}

// ActivityNames returns the sorted names of every activity any window
// recorded a per-activity vector for; nil when the fold did not track
// them.
func (s *Series) ActivityNames() []string {
	return s.dimNames(func(v *WindowVector) map[string][]float64 { return v.PerActivity })
}

// RegionNames returns the sorted names of every code region any window
// recorded a per-region vector for; nil when the fold did not track
// them.
func (s *Series) RegionNames() []string {
	return s.dimNames(func(v *WindowVector) map[string][]float64 { return v.PerRegion })
}

// dimNames collects the sorted key set of one of the window vectors'
// per-dimension maps.
func (s *Series) dimNames(get func(*WindowVector) map[string][]float64) []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	for i := range s.Windows {
		for d := range get(&s.Windows[i]) {
			seen[d] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	names := make([]string, 0, len(seen))
	for d := range seen {
		names = append(names, d)
	}
	sort.Strings(names)
	return names
}

// ActivitySeries projects the series onto one activity: the same windows
// in the same order, each busy vector replaced by the activity's busy
// vector (all zeros for windows where the activity never ran, so its
// trajectory stays aligned with the aggregate one — a window the
// activity sat out gets a null ID, the idle semantics). The projection
// is what per-activity phase segmentation runs on.
func (s *Series) ActivitySeries(name string) *Series {
	return s.project(name, func(v *WindowVector) map[string][]float64 { return v.PerActivity })
}

// RegionSeries projects the series onto one code region, with the same
// alignment semantics as ActivitySeries.
func (s *Series) RegionSeries(name string) *Series {
	return s.project(name, func(v *WindowVector) map[string][]float64 { return v.PerRegion })
}

// project builds the single-dimension projection shared by
// ActivitySeries and RegionSeries.
func (s *Series) project(name string, get func(*WindowVector) map[string][]float64) *Series {
	if s == nil {
		return nil
	}
	out := &Series{Window: s.Window, Procs: s.Procs}
	out.Windows = make([]WindowVector, 0, len(s.Windows))
	for i := range s.Windows {
		v := &s.Windows[i]
		w := WindowVector{Index: v.Index, Events: v.Events}
		if vec, ok := get(v)[name]; ok {
			w.ProcSeconds = append([]float64(nil), vec...)
		} else {
			w.ProcSeconds = make([]float64, s.Procs)
		}
		for len(w.ProcSeconds) < s.Procs {
			w.ProcSeconds = append(w.ProcSeconds, 0)
		}
		out.Windows = append(out.Windows, w)
	}
	return out
}

// GiniOf is stats.Gini.Of with tiny negative cancellation noise clamped:
// perfectly balanced loads can come out as -1e-16, and a served Gini
// coefficient must stay in [0, 1).
func GiniOf(vals []float64) float64 {
	g := stats.Gini.Of(vals)
	if g < 0 {
		return 0
	}
	return g
}
