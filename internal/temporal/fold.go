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
	"cmp"
	"fmt"
	"math"
	"slices"

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
//
// The fold addresses regions and activities by index: AddIndexed takes
// the indices a caller's trace.Names already gave the event's names (the
// collector's cube interns them anyway), and Add interns them itself. A
// window keeps one (index, vector) pair per dimension it recorded, sorted
// by index, so an event costs an index compare per dimension rather than
// a hash per name; the name-keyed maps of a WindowVector are built only
// when a changed window is built.
type Fold struct {
	window float64
	procs  int
	track  bool
	perAct bool
	perReg bool
	filter map[string]bool

	// regIdx and actIdx intern the names of events folded through Add.
	regIdx, actIdx trace.Names
	// regName[i] and actName[j] name region index i and activity index j:
	// each is learned from the first event that gives a window a vector
	// of that dimension.
	regName, actName []string

	// windows are the ring's accumulators in ascending index order.
	windows []*windowAcc
	// lastAcc is the accumulator base window lastW folds into, or nil:
	// consecutive events usually land in the same window, and then need
	// no search. compact drops it when it moves accumulators, and a build
	// drops it because the next write into a built window must first take
	// back the arrays the build shared (windowAcc.own).
	lastW   int
	lastAcc *windowAcc

	// Retention state (cap > 0). sealed flips on the first decimation;
	// from then on every base window below ringStart lives folded into
	// coarse (at base index divided by factor, in ascending index order),
	// and ring windows keep full resolution. factor is the current
	// decimation ratio — 2 at first, doubling whenever the coarse tail
	// outgrows the cap.
	cap       int
	sealed    bool
	ringStart int
	factor    int
	coarse    []*windowAcc

	// The ring's dimension names: how many ring windows record each
	// activity (region) index, and the sorted names, refreshed when a
	// name enters or leaves the ring (namesStale). They are what
	// Series.ActivityNames and RegionNames return, kept as the ring
	// changes instead of scanned per build. actPos[j] is activity j's
	// position in acts.
	actCount, regCount []int
	acts, regs         []string
	actPos             []int
	namesStale         bool
}

// windowAcc is one window's running accumulation. acts and regs hold its
// per-activity and per-region accumulation, one entry per dimension the
// window recorded, in ascending dimension index. built caches the
// immutable WindowVector of the last Series build (padded to builtProcs),
// so an unchanged window costs a header copy per snapshot instead of a
// vector copy — the copy-on-write that makes scrape cost proportional to
// the windows that changed since the last snapshot, not to the retained
// count. The built vector takes the accumulation's arrays as they are
// (shared), and the accumulator copies them back (own) before its next
// write, so a window that no longer changes holds one copy of its
// vectors, not two. stat and ids cache built's summaries the same way
// (stat valid while hasStat, ids while non-nil): every rebuild drops
// both, so they are invalidated exactly where built is.
type windowAcc struct {
	index       int
	procSeconds []float64
	events      int
	acts, regs  []dimVec
	shared      bool

	built      *WindowVector
	builtProcs int
	stat       WindowStat
	hasStat    bool
	ids        *windowIDs
}

// dimVec is one dimension's accumulation within a window: the busy time
// per processor (under PerActivity or PerRegion) and, for an activity,
// the total busy seconds TrackActivities reports the dominant one from.
type dimVec struct {
	dim  int
	secs float64
	vec  []float64
}

// NewFold creates a fold. It panics on a non-positive window width —
// a programming error, not data-dependent.
func NewFold(opts Options) *Fold {
	if opts.Window <= 0 {
		panic(fmt.Sprintf("temporal: window width %g must be positive", opts.Window))
	}
	f := &Fold{
		window: opts.Window,
		track:  opts.TrackActivities,
		perAct: opts.PerActivity,
		perReg: opts.PerRegion,
		cap:    opts.WindowCap,
		factor: 2,
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
	region, _ := f.regIdx.Index(e.Region)
	activity, _ := f.actIdx.Index(e.Activity)
	f.AddIndexed(e, region, activity)
}

// AddIndexed is Add for a caller that has already interned the event's
// names: region and activity are the indices its trace.Names gave
// e.Region and e.Activity. A fold takes every event through Add or every
// event through AddIndexed, and the indices name the same names
// throughout.
func (f *Fold) AddIndexed(e trace.Event, region, activity int) {
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
		f.cover(&acc.procSeconds, e.Rank)
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
		t := hi - lo
		acc := f.accFor(w)
		f.cover(&acc.procSeconds, e.Rank)
		acc.procSeconds[e.Rank] += t
		acc.events++
		if f.track || f.perAct {
			dv := dimIn(acc.acts, activity)
			if dv == nil {
				dv = f.dimFor(&acc.acts, &f.actName, &f.actCount, activity, e.Activity, w)
			}
			dv.secs += t
			if f.perAct {
				f.cover(&dv.vec, e.Rank)
				dv.vec[e.Rank] += t
			}
		}
		if f.perReg {
			dv := dimIn(acc.regs, region)
			if dv == nil {
				dv = f.dimFor(&acc.regs, &f.regName, &f.regCount, region, e.Region, w)
			}
			f.cover(&dv.vec, e.Rank)
			dv.vec[e.Rank] += t
		}
	}
	// The compaction runs after the clip loop, never inside it: sealing
	// mid-event could decimate the very window the loop still holds an
	// accumulator for.
	if f.cap > 0 && len(f.windows) > f.cap {
		f.compact()
	}
}

// cover extends *vec with zeros to cover rank. A vector that must grow
// is sized for every processor seen so far in one step: a window's
// vectors are padded to that count when built anyway.
func (f *Fold) cover(vec *[]float64, rank int) {
	if rank < len(*vec) {
		return
	}
	out := make([]float64, max(rank+1, f.procs))
	copy(out, *vec)
	*vec = out
}

// dimIn returns the entry of dimension dim in a window's list when it
// sits at position dim, nil otherwise. A window usually records every
// dimension below dim too, and then one compare finds the entry.
func dimIn(l []dimVec, dim int) *dimVec {
	if dim < len(l) && l[dim].dim == dim {
		return &l[dim]
	}
	return nil
}

// dimAt returns the entry of dimension dim in a window's list, inserting
// an empty one in index order on first use; added reports the insertion.
func dimAt(list *[]dimVec, dim int) (d *dimVec, added bool) {
	i, found := slices.BinarySearchFunc(*list, dim, func(d dimVec, dim int) int { return cmp.Compare(d.dim, dim) })
	if !found {
		if *list == nil {
			*list = make([]dimVec, 0, 4) // room for a few dimensions at once
		}
		*list = slices.Insert(*list, i, dimVec{dim: dim})
	}
	return &(*list)[i], !found
}

// dimFor is dimAt for AddIndexed, where base window w folds into list:
// when the window records its first vector of dimension dim, the fold
// learns the dimension's name, and a ring window counts it among the
// ring's names.
func (f *Fold) dimFor(list *[]dimVec, names *[]string, counts *[]int, dim int, name string, w int) *dimVec {
	d, added := dimAt(list, dim)
	if !added {
		return d
	}
	for len(*names) <= dim {
		*names = append(*names, "")
	}
	(*names)[dim] = name
	if f.inRing(w) {
		f.countName(counts, dim, 1)
	}
	return d
}

// inRing reports whether base window w folds into the full-resolution
// ring rather than the coarse tail.
func (f *Fold) inRing(w int) bool { return !f.sealed || w >= f.ringStart }

// countName adds d to a ring dimension's window count, marking the sorted
// names stale when the dimension enters or leaves the ring.
func (f *Fold) countName(counts *[]int, dim, d int) {
	for len(*counts) <= dim {
		*counts = append(*counts, 0)
	}
	n := (*counts)[dim] + d
	(*counts)[dim] = n
	if n == 0 || n == d {
		f.namesStale = true
	}
}

// accFor returns the mutable accumulator the base window w folds into: a
// ring window at full resolution, or — for a late event landing below the
// retention boundary — the coarse window covering it. The previous
// event's window answers without a search.
func (f *Fold) accFor(w int) *windowAcc {
	if acc := f.lastAcc; acc != nil && f.lastW == w {
		return acc // owned since findAcc: series drops the memo
	}
	return f.findAcc(w)
}

// findAcc is accFor's search, which also memoizes its answer.
func (f *Fold) findAcc(w int) *windowAcc {
	var acc *windowAcc
	if f.inRing(w) {
		acc = accAt(&f.windows, w)
	} else {
		acc = accAt(&f.coarse, floorDiv(w, f.factor))
	}
	f.lastW, f.lastAcc = w, acc
	acc.own()
	return acc
}

// accAt returns the accumulator of window index in a list kept in
// ascending index order, creating it in place on first use. Events
// usually land in the newest window, so the last entry is checked before
// searching.
func accAt(list *[]*windowAcc, index int) *windowAcc {
	if n := len(*list); n > 0 && (*list)[n-1].index == index {
		return (*list)[n-1]
	}
	i, found := slices.BinarySearchFunc(*list, index, func(a *windowAcc, index int) int { return cmp.Compare(a.index, index) })
	if !found {
		*list = slices.Insert(*list, i, &windowAcc{index: index})
	}
	return (*list)[i]
}

// own drops the accumulator's built vector before the accumulation
// changes, first copying the arrays that vector shares with it.
func (a *windowAcc) own() {
	a.built = nil
	if !a.shared {
		return
	}
	a.procSeconds = slices.Clone(a.procSeconds)
	for i := range a.acts {
		a.acts[i].vec = slices.Clone(a.acts[i].vec)
	}
	for i := range a.regs {
		a.regs[i].vec = slices.Clone(a.regs[i].vec)
	}
	a.shared = false
}

// compact enforces the window cap: the oldest quarter of the ring is
// decimated into the coarse tail (in ascending index order, so repeated
// runs over the same events produce identical sums), and the coarse tail
// re-decimates 2:1 — doubling its width — until it fits the cap too.
// Quarter-at-a-time hysteresis amortizes the work: one compaction per
// cap/4 appended windows.
func (f *Fold) compact() {
	keep := f.cap - f.cap/4
	if keep < 1 {
		keep = 1
	}
	seal := len(f.windows) - keep
	if seal <= 0 {
		return
	}
	// The seal and the re-decimation below move and merge accumulators:
	// the memoized one may no longer be where its window folds.
	f.lastAcc = nil
	for _, src := range f.windows[:seal] {
		for i := range src.acts {
			f.countName(&f.actCount, src.acts[i].dim, -1)
		}
		for i := range src.regs {
			f.countName(&f.regCount, src.regs[i].dim, -1)
		}
		accAt(&f.coarse, floorDiv(src.index, f.factor)).mergeFrom(src)
	}
	f.ringStart = f.windows[seal].index
	f.sealed = true
	n := copy(f.windows, f.windows[seal:])
	clear(f.windows[n:])
	f.windows = f.windows[:n]
	for len(f.coarse) > f.cap {
		f.factor *= 2
		kept := f.coarse[:0]
		for _, acc := range f.coarse {
			nc := floorDiv(acc.index, 2)
			if k := len(kept); k > 0 && kept[k-1].index == nc {
				kept[k-1].mergeFrom(acc)
				continue
			}
			acc.index, acc.built = nc, nil
			kept = append(kept, acc)
		}
		clear(f.coarse[len(kept):])
		f.coarse = kept
	}
}

// mergeFrom folds src's accumulation into a: the 2:1 decimation step.
// Busy time is additive over window unions, so the merged vectors equal
// the exact windows resampled to the coarser width.
func (a *windowAcc) mergeFrom(src *windowAcc) {
	a.own()
	a.procSeconds = padTo(a.procSeconds, len(src.procSeconds))
	for p, t := range src.procSeconds {
		a.procSeconds[p] += t
	}
	a.events += src.events
	mergeDims(&a.acts, src.acts)
	mergeDims(&a.regs, src.regs)
}

// mergeDims sums src's per-dimension accumulation into dst's.
func mergeDims(dst *[]dimVec, src []dimVec) {
	for i := range src {
		s := &src[i]
		d, _ := dimAt(dst, s.dim)
		d.secs += s.secs
		d.vec = padTo(d.vec, len(s.vec))
		for p, t := range s.vec {
			d.vec[p] += t
		}
	}
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
		f.acts, f.actPos = ringNames(f.actCount, f.actName)
		f.regs, _ = ringNames(f.regCount, f.regName)
		f.namesStale = false
	}
	t := &Trajectory{regions: f.regs}
	if f.perAct {
		// Under TrackActivities alone a window records activity seconds
		// but no per-activity vectors, and so no activity names.
		t.activities, t.actPos = f.acts, f.actPos
	}
	t.Series = f.series(t)
	return t
}

// series builds the series and, when t is non-nil, collects its cached
// summaries into t.
func (f *Fold) series(t *Trajectory) *Series {
	// The build shares every changed accumulator's arrays with its vector;
	// the next event into one must take them back, which the memo's fast
	// path does not.
	f.lastAcc = nil
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

// buildList renders an accumulator list as immutable vectors, reusing
// each accumulator's cached build when neither it nor the processor count
// changed. When sums (ids) is non-nil it also receives each vector's
// cached summary at the given width (per-activity IDs), computed only for
// the windows that lack one.
func (f *Fold) buildList(accs []*windowAcc, width float64, sums *[]WindowStat, ids *[]*windowIDs) []WindowVector {
	if len(accs) == 0 {
		return nil
	}
	out := make([]WindowVector, 0, len(accs))
	if sums != nil {
		*sums = make([]WindowStat, 0, len(accs))
	}
	if ids != nil {
		*ids = make([]*windowIDs, 0, len(accs))
	}
	for _, acc := range accs {
		out = append(out, *f.build(acc))
		if sums != nil {
			if !acc.hasStat {
				acc.stat, acc.hasStat = statOf(acc.built, width), true
			}
			*sums = append(*sums, acc.stat)
		}
		if ids != nil {
			if acc.ids == nil {
				acc.ids = f.idsOf(acc)
			}
			*ids = append(*ids, acc.ids)
		}
	}
	return out
}

// build returns the accumulator's immutable vector padded to the fold's
// processor count, rebuilding only when the accumulation changed or the
// processor count grew since the cached build. The vector takes the
// accumulation's arrays, padded; the name-keyed per-dimension maps are
// made here, once per changed window.
func (f *Fold) build(a *windowAcc) *WindowVector {
	if a.built != nil && a.builtProcs == f.procs && a.built.Index == a.index {
		return a.built
	}
	a.procSeconds = padTo(a.procSeconds, f.procs)
	for i := range a.acts {
		if a.acts[i].vec != nil { // nil under TrackActivities alone
			a.acts[i].vec = padTo(a.acts[i].vec, f.procs)
		}
	}
	for i := range a.regs {
		a.regs[i].vec = padTo(a.regs[i].vec, f.procs)
	}
	v := &WindowVector{
		Index:       a.index,
		Events:      a.events,
		ProcSeconds: a.procSeconds,
	}
	if f.track {
		v.Dominant = dominant(a.acts, f.actName)
	}
	if f.perAct {
		v.PerActivity = dimMap(a.acts, f.actName)
	}
	v.PerRegion = dimMap(a.regs, f.regName)
	a.built, a.builtProcs, a.hasStat, a.ids, a.shared = v, f.procs, false, nil, true
	return v
}

// padTo returns vec when it covers procs, otherwise a copy zero-padded to
// procs.
func padTo(vec []float64, procs int) []float64 {
	if len(vec) >= procs {
		return vec
	}
	out := make([]float64, procs)
	copy(out, vec)
	return out
}

// dimMap renders a window's per-dimension vectors as the name-keyed map
// a WindowVector carries; nil when there are none.
func dimMap(dims []dimVec, names []string) map[string][]float64 {
	if len(dims) == 0 {
		return nil
	}
	m := make(map[string][]float64, len(dims))
	for i := range dims {
		m[names[dims[i].dim]] = dims[i].vec
	}
	return m
}

// dominant returns the activity with the largest busy time, breaking
// ties by name so the result is deterministic; "" when nothing was
// tracked.
func dominant(acts []dimVec, names []string) string {
	best, bestT := "", 0.0
	for i := range acts {
		a, t := names[acts[i].dim], acts[i].secs
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
