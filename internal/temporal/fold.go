// Package temporal is the repository's single windowed-analysis engine:
// it folds event traces into per-window per-processor busy-time vectors,
// summarizes them into imbalance trajectories (the /timeline.json the
// live monitor serves), merges the window series of federated endpoints,
// and segments trajectories into phases with PELT-style change-point
// detection.
//
// Before this package existed the windowing semantics lived in two
// divergent copies — the monitor's incremental fold and the offline
// trace.Log.Window clipping — and the offline toolchain had none at all.
// Fold is now the one implementation; Log.Window survives as the
// per-phase slicing oracle its property tests compare against.
//
// The clipping semantics, shared by every consumer:
//
//   - An event overlapping several windows contributes to each the exact
//     overlap of its interval with the half-open window [w·dt, (w+1)·dt).
//   - An event ending exactly on a window boundary belongs to the window
//     it fills, not the empty one it touches.
//   - A zero-duration event contributes no busy time but counts as an
//     event of the window strictly containing its instant; an instant
//     exactly on a boundary belongs to neither side.
package temporal

import (
	"fmt"
	"math"
	"sort"

	"loadimb/internal/trace"
)

// Options configures a Fold.
type Options struct {
	// Window is the window width in virtual seconds; it must be
	// positive.
	Window float64
	// Activities, when non-empty, restricts the busy-time accumulation
	// to the named activities. The live monitor folds everything; the
	// offline toolchain uses the filter to compute, say, the trajectory
	// of computation time alone — in synchronized message-passing runs
	// the all-activity busy time is uniform by construction (waiting is
	// instrumented too), and the imbalance signal lives in how the
	// activity mix is divided.
	Activities []string
	// TrackActivities records per-window per-activity busy time so the
	// series can report each window's dominant activity. The live
	// monitor leaves it off (its wire format predates the field); the
	// offline trajectory turns it on.
	TrackActivities bool
	// PerActivity records per-window per-activity busy *vectors* (one
	// busy time per processor per activity), so a trajectory — and its
	// phase segmentation — can be computed for each activity separately.
	// It is independent of TrackActivities: the live monitor turns on
	// PerActivity alone, keeping /timeline.json's wire format (which has
	// no Dominant field) byte-identical.
	PerActivity bool
	// PerRegion records per-window per-region busy vectors, the code-region
	// counterpart of PerActivity: a diagnosis can then attribute a rank's
	// divergence to the region it spent the extra time in, not just the
	// activity class.
	PerRegion bool
	// WindowCap bounds the fold's retained state: at most WindowCap
	// non-empty windows are kept at full resolution (the ring of the most
	// recent ones); older windows are decimated 2:1 into coarser vectors,
	// and the coarse tail itself re-decimates (doubling its width) when it
	// outgrows the cap, so total state is O(WindowCap) regardless of run
	// length while the full-run trajectory stays queryable at reduced
	// resolution (Series.Coarse). 0 means unbounded — the offline
	// toolchain folds finite traces and keeps exact windows; the live
	// monitor, which must survive forever-looping workloads, sets a cap.
	WindowCap int
}

// DefaultWindowCap is the live monitor's default window cap: small enough
// that per-scrape state and fold cost stay modest (a few MB at typical
// processor counts), large enough that the full-resolution ring spans
// thousands of windows of recent history.
const DefaultWindowCap = 4096

// Fold incrementally accumulates events into per-window busy vectors. It
// is not concurrency-safe; the monitor serializes Add calls under its
// fold mutex, offline callers fold a log single-threaded.
type Fold struct {
	window  float64
	procs   int
	track   bool
	perAct  bool
	perReg  bool
	filter  map[string]bool
	windows map[int]*windowAcc

	// Retention state (cap > 0). sealed flips on the first decimation;
	// from then on every base window below ringStart lives folded into
	// coarse (keyed by base index divided by factor), and ring windows
	// keep full resolution. factor is the current decimation ratio —
	// 2 at first, doubling whenever the coarse tail outgrows the cap.
	cap       int
	sealed    bool
	ringStart int
	factor    int
	coarse    map[int]*windowAcc

	// The ring's dimension names: how many ring windows record each
	// activity (region) vector, and the sorted names, refreshed when a
	// name enters or leaves the ring (namesStale). They are what
	// Series.ActivityNames and RegionNames return, kept as the ring
	// changes instead of scanned per build.
	actCount, regCount map[string]int
	acts, regs         []string
	namesStale         bool
}

// windowAcc is one window's running accumulation. built caches the
// immutable WindowVector of the last Series build (padded to builtProcs),
// so an unchanged window costs a header copy per snapshot instead of a
// vector copy — the copy-on-write that makes scrape cost proportional to
// the windows that changed since the last snapshot, not to the retained
// count. stat and ids cache built's summaries the same way (stat valid
// while hasStat, ids while non-nil): every rebuild drops both, so they
// are invalidated exactly where built is.
type windowAcc struct {
	procSeconds []float64
	events      int
	actSeconds  map[string]float64
	actProc     map[string][]float64
	regProc     map[string][]float64

	built      *WindowVector
	builtProcs int
	stat       WindowStat
	hasStat    bool
	ids        *windowIDs
}

// NewFold creates a fold. It panics on a non-positive window width —
// a programming error, not data-dependent.
func NewFold(opts Options) *Fold {
	if opts.Window <= 0 {
		panic(fmt.Sprintf("temporal: window width %g must be positive", opts.Window))
	}
	f := &Fold{
		window:   opts.Window,
		track:    opts.TrackActivities,
		perAct:   opts.PerActivity,
		perReg:   opts.PerRegion,
		cap:      opts.WindowCap,
		factor:   2,
		windows:  make(map[int]*windowAcc),
		actCount: make(map[string]int),
		regCount: make(map[string]int),
	}
	if len(opts.Activities) > 0 {
		f.filter = make(map[string]bool, len(opts.Activities))
		for _, a := range opts.Activities {
			f.filter[a] = true
		}
	}
	return f
}

// Window returns the configured window width.
func (f *Fold) Window() float64 { return f.window }

// Procs returns the processor count seen so far: the maximum event rank
// plus one.
func (f *Fold) Procs() int { return f.procs }

// Add folds one event. The event must be well formed (trace.Event
// Validate semantics: nonnegative rank, nonnegative duration); events
// filtered out by Options.Activities still grow the processor count,
// since an idle processor is the imbalance, not missing data. Negative
// start times are handled by flooring, so an event reaching into
// negative virtual time lands in the negative-index windows covering it
// rather than corrupting window zero.
func (f *Fold) Add(e trace.Event) {
	if e.Rank >= f.procs {
		f.procs = e.Rank + 1
	}
	if f.filter != nil && !f.filter[e.Activity] {
		return
	}
	d := e.End - e.Start
	if d == 0 {
		// A zero-duration event contributes no busy time but still
		// counts as an event of the window strictly containing its
		// instant; an instant exactly on a boundary belongs to neither
		// side, matching Log.Window's half-open [from, to) clipping.
		w := int(math.Floor(e.Start / f.window))
		if e.Start == float64(w)*f.window {
			return
		}
		acc := f.accFor(w)
		acc.grow(e.Rank)
		acc.events++
		if f.cap > 0 && len(f.windows) > f.cap {
			f.compact()
		}
		return
	}
	first := int(math.Floor(e.Start / f.window))
	last := int(math.Floor(e.End / f.window))
	if e.End == float64(last)*f.window && last > first {
		last-- // end exactly on a boundary belongs to the previous window
	}
	for w := first; w <= last; w++ {
		lo, hi := float64(w)*f.window, float64(w+1)*f.window
		if e.Start > lo {
			lo = e.Start
		}
		if e.End < hi {
			hi = e.End
		}
		if hi <= lo {
			continue
		}
		acc := f.accFor(w)
		acc.grow(e.Rank)
		acc.procSeconds[e.Rank] += hi - lo
		acc.events++
		if acc.actSeconds != nil {
			acc.actSeconds[e.Activity] += hi - lo
		}
		if acc.actProc != nil {
			vec, ok := acc.actProc[e.Activity]
			if !ok && f.inRing(w) {
				f.countName(f.actCount, e.Activity, 1)
			}
			for len(vec) <= e.Rank {
				vec = append(vec, 0)
			}
			vec[e.Rank] += hi - lo
			acc.actProc[e.Activity] = vec
		}
		if acc.regProc != nil {
			vec, ok := acc.regProc[e.Region]
			if !ok && f.inRing(w) {
				f.countName(f.regCount, e.Region, 1)
			}
			for len(vec) <= e.Rank {
				vec = append(vec, 0)
			}
			vec[e.Rank] += hi - lo
			acc.regProc[e.Region] = vec
		}
	}
	// The compaction runs after the clip loop, never inside it: sealing
	// mid-event could decimate the very window the loop still holds an
	// accumulator for.
	if f.cap > 0 && len(f.windows) > f.cap {
		f.compact()
	}
}

// inRing reports whether base window w folds into the full-resolution
// ring rather than the coarse tail.
func (f *Fold) inRing(w int) bool { return !f.sealed || w >= f.ringStart }

// countName adds d to a ring name's window count, marking the sorted names
// stale when the name enters or leaves the ring.
func (f *Fold) countName(counts map[string]int, name string, d int) {
	n := counts[name] + d
	if n == 0 {
		delete(counts, name)
	} else {
		counts[name] = n
	}
	if n == 0 || n == d {
		f.namesStale = true
	}
}

// accFor returns the mutable accumulator the base window w folds into: a
// ring window at full resolution, or — for a late event landing below the
// retention boundary — the coarse window covering it.
func (f *Fold) accFor(w int) *windowAcc {
	if !f.inRing(w) {
		acc := f.coarseAcc(floorDiv(w, f.factor))
		acc.built = nil
		return acc
	}
	acc := f.acc(w)
	acc.built = nil
	return acc
}

// acc returns the ring accumulator of window w, creating it on first use.
func (f *Fold) acc(w int) *windowAcc {
	acc, ok := f.windows[w]
	if !ok {
		acc = f.newAcc()
		f.windows[w] = acc
	}
	return acc
}

// coarseAcc returns the coarse accumulator of decimated window c,
// creating it on first use.
func (f *Fold) coarseAcc(c int) *windowAcc {
	acc, ok := f.coarse[c]
	if !ok {
		acc = f.newAcc()
		f.coarse[c] = acc
	}
	return acc
}

func (f *Fold) newAcc() *windowAcc {
	acc := &windowAcc{}
	if f.track {
		acc.actSeconds = make(map[string]float64)
	}
	if f.perAct {
		acc.actProc = make(map[string][]float64)
	}
	if f.perReg {
		acc.regProc = make(map[string][]float64)
	}
	return acc
}

// grow extends the busy vector to cover rank.
func (a *windowAcc) grow(rank int) {
	for len(a.procSeconds) <= rank {
		a.procSeconds = append(a.procSeconds, 0)
	}
}

// compact enforces the window cap: the oldest quarter of the ring is
// decimated into the coarse tail (in ascending index order, so repeated
// runs over the same events produce identical sums), and the coarse tail
// re-decimates 2:1 — doubling its width — until it fits the cap too.
// Quarter-at-a-time hysteresis amortizes the sort: one compaction per
// cap/4 appended windows, O(log cap) per window.
func (f *Fold) compact() {
	idxs := make([]int, 0, len(f.windows))
	for w := range f.windows {
		idxs = append(idxs, w)
	}
	sort.Ints(idxs)
	keep := f.cap - f.cap/4
	if keep < 1 {
		keep = 1
	}
	seal := idxs[:len(idxs)-keep]
	if len(seal) == 0 {
		return
	}
	if f.coarse == nil {
		f.coarse = make(map[int]*windowAcc)
	}
	for _, w := range seal {
		src := f.windows[w]
		for name := range src.actProc {
			f.countName(f.actCount, name, -1)
		}
		for name := range src.regProc {
			f.countName(f.regCount, name, -1)
		}
		f.coarseAcc(floorDiv(w, f.factor)).mergeFrom(src)
		delete(f.windows, w)
	}
	f.ringStart = idxs[len(idxs)-keep]
	f.sealed = true
	for len(f.coarse) > f.cap {
		f.factor *= 2
		old := f.coarse
		cIdxs := make([]int, 0, len(old))
		for c := range old {
			cIdxs = append(cIdxs, c)
		}
		sort.Ints(cIdxs)
		f.coarse = make(map[int]*windowAcc, len(old)/2+1)
		for _, c := range cIdxs {
			nc := floorDiv(c, 2)
			if dst, ok := f.coarse[nc]; ok {
				dst.mergeFrom(old[c])
			} else {
				old[c].built = nil
				f.coarse[nc] = old[c]
			}
		}
	}
}

// mergeFrom folds src's accumulation into a: the 2:1 decimation step.
// Busy time is additive over window unions, so the merged vectors equal
// the exact windows resampled to the coarser width.
func (a *windowAcc) mergeFrom(src *windowAcc) {
	a.built = nil
	a.grow(len(src.procSeconds) - 1)
	for p, t := range src.procSeconds {
		a.procSeconds[p] += t
	}
	a.events += src.events
	for act, t := range src.actSeconds {
		if a.actSeconds == nil {
			a.actSeconds = make(map[string]float64)
		}
		a.actSeconds[act] += t
	}
	a.actProc = mergeVecMap(a.actProc, src.actProc)
	a.regProc = mergeVecMap(a.regProc, src.regProc)
}

// mergeVecMap sums src's per-dimension vectors into dst elementwise.
func mergeVecMap(dst, src map[string][]float64) map[string][]float64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string][]float64, len(src))
	}
	for k, vec := range src {
		d := dst[k]
		for len(d) < len(vec) {
			d = append(d, 0)
		}
		for p, t := range vec {
			d[p] += t
		}
		dst[k] = d
	}
	return dst
}

// floorDiv is floored integer division: the quotient rounds toward
// negative infinity, so negative window indices decimate into the coarse
// window covering them rather than the one above.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Series snapshots the fold into an immutable window series: one entry
// per non-empty window in time order, busy vectors padded to Procs so
// ranks idle for a whole window count as zeros. The fold can keep
// accumulating afterwards; the series does not alias its mutable buffers
// — windows unchanged since the previous Series call share their built
// immutable vectors, so the snapshot costs O(retained) header copies plus
// vector copies only for the windows that actually changed.
//
// With a WindowCap set, Windows is the full-resolution ring and the
// decimated prefix is published through the series' Coarse fields.
func (f *Fold) Series() *Series { return f.series(nil) }

// Trajectory returns what Series returns together with the summaries the
// fold caches next to each built vector: the ring and coarse trajectories
// (exactly the series' Stats and CoarseStats) and each ring window's
// per-activity indices and dimension names. Like the vectors, only the
// windows that changed since the last call are summarized again.
func (f *Fold) Trajectory() *Trajectory {
	if f.namesStale {
		f.acts, f.regs, f.namesStale = sortedNames(f.actCount), sortedNames(f.regCount), false
	}
	t := &Trajectory{activities: f.acts, regions: f.regs}
	t.Series = f.series(t)
	return t
}

// series builds the series and, when t is non-nil, collects its cached
// summaries into t.
func (f *Fold) series(t *Trajectory) *Series {
	var ring, coarse *[]WindowStat
	var ids *[]*windowIDs
	if t != nil {
		ring, coarse, ids = &t.Ring, &t.Coarse, &t.ids
	}
	s := &Series{Window: f.window, Procs: f.procs}
	s.Windows = f.buildList(f.windows, f.window, ring, ids)
	if f.sealed {
		s.CoarseWindow = f.window * float64(f.factor)
		s.RingStart = f.ringStart
		s.Coarse = f.buildList(f.coarse, s.CoarseWindow, coarse, nil)
	}
	return s
}

// buildList renders one accumulator map as sorted immutable vectors,
// reusing each accumulator's cached build when neither it nor the
// processor count changed. When sums (ids) is non-nil it also receives
// each vector's cached summary at the given width (per-activity IDs),
// computed only for the windows that lack one.
func (f *Fold) buildList(accs map[int]*windowAcc, width float64, sums *[]WindowStat, ids *[]*windowIDs) []WindowVector {
	if len(accs) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(accs))
	for w := range accs {
		idxs = append(idxs, w)
	}
	sort.Ints(idxs)
	out := make([]WindowVector, 0, len(idxs))
	if sums != nil {
		*sums = make([]WindowStat, 0, len(idxs))
	}
	if ids != nil {
		*ids = make([]*windowIDs, 0, len(idxs))
	}
	for _, w := range idxs {
		acc := accs[w]
		out = append(out, *acc.build(w, f.procs))
		if sums != nil {
			if !acc.hasStat {
				acc.stat, acc.hasStat = statOf(acc.built, width), true
			}
			*sums = append(*sums, acc.stat)
		}
		if ids != nil {
			if acc.ids == nil {
				acc.ids = idsOf(acc.built, f.procs, f.acts)
			}
			*ids = append(*ids, acc.ids)
		}
	}
	return out
}

// build returns the accumulator's immutable vector at the given index,
// padded to procs, rebuilding only when the accumulation changed or the
// processor count grew since the cached build.
func (a *windowAcc) build(index, procs int) *WindowVector {
	if a.built != nil && a.builtProcs == procs && a.built.Index == index {
		return a.built
	}
	v := &WindowVector{
		Index:       index,
		Events:      a.events,
		ProcSeconds: append([]float64(nil), a.procSeconds...),
	}
	for len(v.ProcSeconds) < procs {
		v.ProcSeconds = append(v.ProcSeconds, 0)
	}
	v.Dominant = dominant(a.actSeconds)
	if len(a.actProc) > 0 {
		v.PerActivity = make(map[string][]float64, len(a.actProc))
		for act, vec := range a.actProc {
			padded := append([]float64(nil), vec...)
			for len(padded) < procs {
				padded = append(padded, 0)
			}
			v.PerActivity[act] = padded
		}
	}
	if len(a.regProc) > 0 {
		v.PerRegion = make(map[string][]float64, len(a.regProc))
		for r, vec := range a.regProc {
			padded := append([]float64(nil), vec...)
			for len(padded) < procs {
				padded = append(padded, 0)
			}
			v.PerRegion[r] = padded
		}
	}
	a.built, a.builtProcs, a.hasStat, a.ids = v, procs, false, nil
	return v
}

// dominant returns the activity with the largest busy time, breaking
// ties by name so the result is deterministic; "" when nothing was
// tracked.
func dominant(actSeconds map[string]float64) string {
	best, bestT := "", 0.0
	for a, t := range actSeconds {
		if t > bestT || (t == bestT && t > 0 && a < best) {
			best, bestT = a, t
		}
	}
	return best
}

// FoldLog folds a whole event log and returns its window series — the
// offline equivalent of the monitor's incremental windowing. The
// processor count is the log's rank count, so filtered trajectories
// still standardize over every processor of the run.
func FoldLog(lg *trace.Log, opts Options) (*Series, error) {
	if lg == nil {
		return nil, fmt.Errorf("temporal: nil log")
	}
	if opts.Window <= 0 {
		return nil, fmt.Errorf("temporal: window width %g must be positive", opts.Window)
	}
	f := NewFold(opts)
	lg.Each(f.Add)
	return f.Series(), nil
}
