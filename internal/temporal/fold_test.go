package temporal

import (
	"math"
	"reflect"
	"testing"

	"loadimb/internal/stats"
	"loadimb/internal/trace"
)

// oracleFold is the window-accumulation logic internal/monitor's
// foldState carried before the refactor onto this package, extended with
// the per-activity and per-region accumulation written out name by name:
// the shared Fold must reproduce it bit for bit on every input the
// monitor accepts (nonnegative rank and start, nonnegative duration).
type oracleFold struct {
	procs   int
	windows map[int]*oracleAcc
}

type oracleAcc struct {
	procSeconds []float64
	events      int
	actSeconds  map[string]float64
	actProc     map[string][]float64
	regProc     map[string][]float64
}

func newOracleFold() *oracleFold {
	return &oracleFold{windows: make(map[int]*oracleAcc)}
}

func (s *oracleFold) fold(e trace.Event, window float64) {
	if e.Rank >= s.procs {
		s.procs = e.Rank + 1
	}
	d := e.End - e.Start
	if window <= 0 {
		return
	}
	if d == 0 {
		w := int(e.Start / window)
		if e.Start == float64(w)*window {
			return
		}
		acc := s.window(w)
		for len(acc.procSeconds) <= e.Rank {
			acc.procSeconds = append(acc.procSeconds, 0)
		}
		acc.events++
		return
	}
	first := int(e.Start / window)
	last := int(e.End / window)
	if e.End == float64(last)*window && last > first {
		last--
	}
	for w := first; w <= last; w++ {
		lo, hi := float64(w)*window, float64(w+1)*window
		if e.Start > lo {
			lo = e.Start
		}
		if e.End < hi {
			hi = e.End
		}
		if hi <= lo {
			continue
		}
		acc := s.window(w)
		for len(acc.procSeconds) <= e.Rank {
			acc.procSeconds = append(acc.procSeconds, 0)
		}
		acc.procSeconds[e.Rank] += hi - lo
		acc.events++
		acc.actSeconds[e.Activity] += hi - lo
		acc.actProc[e.Activity] = oracleAddAt(acc.actProc[e.Activity], e.Rank, hi-lo)
		acc.regProc[e.Region] = oracleAddAt(acc.regProc[e.Region], e.Rank, hi-lo)
	}
}

// oracleAddAt adds t to vec[rank], growing vec with zeros to reach it.
func oracleAddAt(vec []float64, rank int, t float64) []float64 {
	for len(vec) <= rank {
		vec = append(vec, 0)
	}
	vec[rank] += t
	return vec
}

func (s *oracleFold) window(w int) *oracleAcc {
	acc, ok := s.windows[w]
	if !ok {
		acc = &oracleAcc{
			actSeconds: make(map[string]float64),
			actProc:    make(map[string][]float64),
			regProc:    make(map[string][]float64),
		}
		s.windows[w] = acc
	}
	return acc
}

// dominant is the oracle's dominant activity: the largest busy time, ties
// to the smaller name, "" when no activity recorded busy time.
func (a *oracleAcc) dominant() string {
	best, bestT := "", 0.0
	for act, t := range a.actSeconds {
		if t > bestT || (t == bestT && t > 0 && act < best) {
			best, bestT = act, t
		}
	}
	return best
}

// checkAgainstOracle folds the events through both implementations and
// requires bit-identical per-window vectors, event counts, per-activity
// and per-region vectors and dominant activities. It returns the fold's
// series.
func checkAgainstOracle(t *testing.T, events []trace.Event, window float64) *Series {
	t.Helper()
	f := NewFold(Options{Window: window, PerActivity: true, PerRegion: true, TrackActivities: true})
	o := newOracleFold()
	for _, e := range events {
		f.Add(e)
		o.fold(e, window)
	}
	if f.Procs() != o.procs {
		t.Fatalf("procs = %d, oracle %d", f.Procs(), o.procs)
	}
	ser := f.Series()
	if len(ser.Windows) != len(o.windows) {
		t.Fatalf("%d windows, oracle %d", len(ser.Windows), len(o.windows))
	}
	for _, v := range ser.Windows {
		acc, ok := o.windows[v.Index]
		if !ok {
			t.Fatalf("window %d missing from oracle", v.Index)
		}
		if v.Events != acc.events {
			t.Errorf("window %d events = %d, oracle %d", v.Index, v.Events, acc.events)
		}
		checkOracleVec(t, "busy", v.Index, v.ProcSeconds, acc.procSeconds, o.procs)
		if want := acc.dominant(); v.Dominant != want {
			t.Errorf("window %d dominant = %q, oracle %q", v.Index, v.Dominant, want)
		}
		checkOracleDims(t, "activity", v.Index, v.PerActivity, acc.actProc, o.procs)
		checkOracleDims(t, "region", v.Index, v.PerRegion, acc.regProc, o.procs)
	}
	return ser
}

// checkOracleVec requires got to be want zero-padded to procs, bit for
// bit.
func checkOracleVec(t *testing.T, what string, idx int, got, want []float64, procs int) {
	t.Helper()
	if len(got) != procs {
		t.Errorf("window %d %s vector has %d ranks, want %d", idx, what, len(got), procs)
		return
	}
	for p, g := range got {
		w := 0.0
		if p < len(want) {
			w = want[p]
		}
		if math.Float64bits(g) != math.Float64bits(w) { // bit-identical, not approximately equal
			t.Errorf("window %d %s rank %d = %g, oracle %g", idx, what, p, g, w)
		}
	}
}

// checkOracleDims requires one window's per-dimension vectors to hold
// exactly the oracle's names, each vector bit-identical to the oracle's.
func checkOracleDims(t *testing.T, what string, idx int, got, want map[string][]float64, procs int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("window %d has %d %s vectors, oracle %d", idx, len(got), what, len(want))
	}
	for name, vec := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("window %d misses the %s vector of %q", idx, what, name)
			continue
		}
		checkOracleVec(t, what+" "+name, idx, g, vec, procs)
	}
}

func TestFoldMatchesOracleOnBoundaryShapes(t *testing.T) {
	events := []trace.Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0.5, End: 0.5},   // zero-duration, mid-window
		{Rank: 0, Region: "r", Activity: "a", Start: 1, End: 1},       // zero-duration, on a boundary: no window
		{Rank: 0, Region: "r", Activity: "a", Start: 0.25, End: 1},    // ends exactly on a boundary
		{Rank: 1, Region: "r", Activity: "a", Start: 1, End: 2},       // covers window 1 exactly
		{Rank: 0, Region: "r", Activity: "a", Start: 1.5, End: 4.75},  // spans windows 1..4
		{Rank: 2, Region: "r", Activity: "b", Start: 0, End: 3},       // spans 0..2, both ends on boundaries
		{Rank: 1, Region: "r", Activity: "a", Start: 4.25, End: 4.25}, // zero-duration in the last window
		{Rank: 5, Region: "r", Activity: "a", Start: 0.1, End: 0.2},   // rank gap: ranks 3, 4 stay idle
	}
	checkAgainstOracle(t, events, 1.0)
	checkAgainstOracle(t, events, 0.3)
	checkAgainstOracle(t, events, 10) // everything in window 0
}

// TestFoldMatchesLogWindowOracle asserts the fold against the offline
// Log.Window clipping: for every produced window, slicing the log to
// the window's bounds and summing durations per rank must give the same
// busy vector and event count.
func TestFoldMatchesLogWindowOracle(t *testing.T) {
	var lg trace.Log
	shapes := []trace.Event{
		{Rank: 0, Region: "r1", Activity: "a", Start: 0, End: 0.7},
		{Rank: 1, Region: "r1", Activity: "b", Start: 0.2, End: 2.6},
		{Rank: 2, Region: "r2", Activity: "a", Start: 0.8, End: 0.8},
		{Rank: 0, Region: "r2", Activity: "b", Start: 1.2, End: 1.2},
		{Rank: 3, Region: "r1", Activity: "a", Start: 2.4, End: 5.601},
		{Rank: 1, Region: "r2", Activity: "a", Start: 4.8, End: 4.8000001},
	}
	for _, e := range shapes {
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	const window = 0.8
	ser, err := FoldLog(&lg, Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if ser.Procs != lg.Ranks() {
		t.Fatalf("series procs = %d, want %d", ser.Procs, lg.Ranks())
	}
	span := lg.Span()
	for w := 0; float64(w)*window < span; w++ {
		from, to := float64(w)*window, float64(w+1)*window
		oracle, err := lg.Window(from, to)
		if err != nil {
			t.Fatal(err)
		}
		var got *WindowVector
		for i := range ser.Windows {
			if ser.Windows[i].Index == w {
				got = &ser.Windows[i]
			}
		}
		if got == nil {
			if oracle.Len() != 0 {
				t.Errorf("window %d missing: oracle holds %d events", w, oracle.Len())
			}
			continue
		}
		if got.Events != oracle.Len() {
			t.Errorf("window %d events = %d, oracle %d", w, got.Events, oracle.Len())
		}
		perRank := make([]float64, lg.Ranks())
		oracle.Each(func(e trace.Event) { perRank[e.Rank] += e.Duration() })
		for p := range perRank {
			if math.Abs(got.ProcSeconds[p]-perRank[p]) > 1e-12 {
				t.Errorf("window %d rank %d busy = %g, oracle %g", w, p, got.ProcSeconds[p], perRank[p])
			}
		}
	}
}

// FuzzFoldOracle drives the shared fold against the pre-refactor
// foldState logic with generated event batches: identical windows,
// identical bits.
func FuzzFoldOracle(f *testing.F) {
	f.Add(uint64(1), 8, 1.0)
	f.Add(uint64(42), 100, 0.125)
	f.Add(uint64(7), 3, 3.7)
	f.Add(uint64(417), 53, 0.81) // a compaction seals the window the next event revisits
	f.Fuzz(func(t *testing.T, seed uint64, n int, window float64) {
		if n <= 0 || n > 512 {
			t.Skip()
		}
		if !(window > 1e-9) || window > 1e6 || math.IsInf(window, 0) || math.IsNaN(window) {
			t.Skip()
		}
		rng := seed
		next := func() float64 {
			// xorshift64*, plenty for shape generation.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return float64(rng%1_000_000) / 1_000_000
		}
		events := make([]trace.Event, 0, n)
		for i := 0; i < n; i++ {
			start := next() * 20
			dur := next() * 5
			switch int(rng % 5) {
			case 0:
				dur = 0 // zero-duration
			case 1:
				start = math.Floor(start/window) * window // start on a boundary
			case 2:
				end := math.Ceil((start+dur)/window) * window // end on a boundary
				if end > start {
					dur = end - start
				}
			case 3:
				if i > 0 { // the previous event's window again
					start, dur = events[i-1].Start, dur/8
				}
			}
			// Regions and activities change independently of each other
			// and of the rank, so every window interleaves several of each.
			events = append(events, trace.Event{
				Rank:     int(rng % 17),
				Region:   []string{"r0", "r1", "r2", "r3", "r4"}[(rng>>11)%5],
				Activity: []string{"a", "b", "c", "d"}[(rng>>23)%4],
				Start:    start,
				End:      start + dur,
			})
		}
		free := checkAgainstOracle(t, events, window)
		// The same stream through a capped fold, whose compactions and
		// coarse re-decimations move accumulators between windows: the
		// cached trajectories must track every step, and no event may be
		// lost on the way. A second capped fold builds nothing until the
		// end, so its window memo carries from one event to the next, and
		// it must hold the same series.
		opts := Options{Window: window, WindowCap: 16, PerActivity: true, PerRegion: true, TrackActivities: true}
		capped, unbuilt := NewFold(opts), NewFold(opts)
		var c trajectoryChecker
		for _, e := range events {
			capped.Add(e)
			c.check(t, capped)
			unbuilt.Add(e)
		}
		checkRetention(t, free, capped.Series())
		if !reflect.DeepEqual(unbuilt.Series(), capped.Series()) {
			t.Fatal("a capped fold built only at the end differs from one built after every event")
		}
	})
}

// checkRetention requires a capped fold's series to hold an uncapped
// fold's: the ring windows identical, and every event and (up to
// rounding) every processor-second of the rest in the coarse tail.
func checkRetention(t *testing.T, free, capped *Series) {
	t.Helper()
	byIdx := make(map[int]*WindowVector, len(free.Windows))
	for i := range free.Windows {
		byIdx[free.Windows[i].Index] = &free.Windows[i]
	}
	var events, wantEvents int
	var busy, wantBusy float64
	for i := range capped.Windows {
		v := &capped.Windows[i]
		if want, ok := byIdx[v.Index]; !ok || !reflect.DeepEqual(v, want) {
			t.Fatalf("capped ring window %d differs from the uncapped fold's", v.Index)
		}
	}
	for _, ws := range [][]WindowVector{capped.Windows, capped.Coarse} {
		for i := range ws {
			events += ws[i].Events
			busy += stats.Sum(ws[i].ProcSeconds)
		}
	}
	for i := range free.Windows {
		wantEvents += free.Windows[i].Events
		wantBusy += stats.Sum(free.Windows[i].ProcSeconds)
	}
	if events != wantEvents {
		t.Fatalf("capped fold holds %d events, uncapped %d", events, wantEvents)
	}
	if math.Abs(busy-wantBusy) > 1e-9*math.Max(1, wantBusy) {
		t.Fatalf("capped fold holds %g busy seconds, uncapped %g", busy, wantBusy)
	}
}

// trajectoryChecker checks a fold after each step of a stream. It fails
// if any of the fold's cached summaries differs from its stateless
// computation over the series — the ring and coarse trajectories, the
// dimension names, and the phase summaries built from the cached
// per-activity indices — or if the series it saw at the previous step
// changed since: a built vector shares its arrays with its window's
// accumulator, which must copy them before it is written again.
type trajectoryChecker struct {
	last, lastCopy *Series
}

func (c *trajectoryChecker) check(t *testing.T, f *Fold) {
	t.Helper()
	if c.last != nil && !reflect.DeepEqual(c.last, c.lastCopy) {
		t.Fatal("a series published earlier changed when later events were folded")
	}
	tr := f.Trajectory()
	ser := tr.Series
	if !reflect.DeepEqual(ser, f.Series()) {
		t.Fatal("Trajectory's series differs from Series")
	}
	if want := ser.Stats(); !reflect.DeepEqual(tr.Ring, want) {
		t.Fatalf("cached ring trajectory differs from Series().Stats():\ngot  %+v\nwant %+v", tr.Ring, want)
	}
	if want := ser.CoarseStats(); !reflect.DeepEqual(tr.Coarse, want) {
		t.Fatalf("cached coarse trajectory differs from Series().CoarseStats():\ngot  %+v\nwant %+v", tr.Coarse, want)
	}
	if got, want := tr.ActivityNames(), ser.ActivityNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached activity names %q, want %q", got, want)
	}
	if got, want := tr.RegionNames(), ser.RegionNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached region names %q, want %q", got, want)
	}
	phases := Segment(tr.Ring, 0)
	if got, want := tr.SummarizePhases(phases), SummarizePhases(ser, phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("phase summaries from the cached indices differ from SummarizePhases:\ngot  %+v\nwant %+v", got, want)
	}
	c.last, c.lastCopy = ser, cloneSeries(ser)
}

// cloneSeries deep-copies a series.
func cloneSeries(s *Series) *Series {
	out := *s
	out.Windows, out.Coarse = nil, nil
	for i := range s.Windows {
		out.Windows = append(out.Windows, *cloneVector(&s.Windows[i]))
	}
	for i := range s.Coarse {
		out.Coarse = append(out.Coarse, *cloneVector(&s.Coarse[i]))
	}
	return &out
}

// TestFoldTrajectoryCache checks the cached trajectories after every step
// of a stream that exercises each invalidation: windows still growing,
// late events into old ring windows and into sealed (coarse) ones, a new
// rank mid-run that re-pads every window, and a cap small enough that
// compaction and coarse re-decimation happen many times.
func TestFoldTrajectoryCache(t *testing.T) {
	f := NewFold(Options{Window: 1, WindowCap: 16, PerActivity: true, PerRegion: true, TrackActivities: true})
	var c trajectoryChecker
	ranks := 4
	for w := 0; w < 300; w++ {
		if w == 150 {
			ranks = 6
		}
		for r := 0; r < ranks; r++ {
			t0 := float64(w) + 0.05*float64(r)
			f.Add(trace.Event{Rank: r, Region: "solve", Activity: "compute", Start: t0, End: t0 + 0.3 + 0.1*float64((w+r)%3)})
			f.Add(trace.Event{Rank: r, Region: "halo", Activity: "wait", Start: t0 + 0.5, End: t0 + 0.5 + 0.05*float64(w%4)})
		}
		c.check(t, f)
		if w%7 == 6 {
			f.Add(trace.Event{Rank: 1, Region: "solve", Activity: "wait", Start: float64(w) - 4.5, End: float64(w) - 4.2})
			c.check(t, f)
		}
		if w%11 == 10 {
			f.Add(trace.Event{Rank: 2, Region: "halo", Activity: "compute", Start: float64(w/3) + 0.1, End: float64(w/3) + 0.9})
			f.Add(trace.Event{Rank: 0, Region: "solve", Activity: "compute", Start: float64(w/5) + 0.5, End: float64(w/5) + 0.5})
			c.check(t, f)
		}
		if w >= 100 && w < 104 {
			// Names that enter the ring here and leave it once compaction
			// moves these windows out.
			f.Add(trace.Event{Rank: 0, Region: "io", Activity: "read", Start: float64(w) + 0.8, End: float64(w) + 0.9})
			c.check(t, f)
		}
		if w == 250 {
			// New names landing in a sealed (coarse) window: not the ring's.
			f.Add(trace.Event{Rank: 1, Region: "restart", Activity: "replay", Start: 0.2, End: 0.4})
			c.check(t, f)
		}
	}
	ser := f.Series()
	if ser.CoarseWindow <= 2*ser.Window {
		t.Fatalf("coarse width %g: the stream never re-decimated the coarse tail", ser.CoarseWindow)
	}
}

func TestFoldActivityFilter(t *testing.T) {
	var lg trace.Log
	for _, e := range []trace.Event{
		{Rank: 0, Region: "r", Activity: "compute", Start: 0, End: 1},
		{Rank: 1, Region: "r", Activity: "wait", Start: 0, End: 1},
		{Rank: 2, Region: "r", Activity: "wait", Start: 0.5, End: 1},
	} {
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	ser, err := FoldLog(&lg, Options{Window: 1, Activities: []string{"compute"}})
	if err != nil {
		t.Fatal(err)
	}
	// Filtered-out events still define the rank space.
	if ser.Procs != 3 {
		t.Fatalf("procs = %d, want 3", ser.Procs)
	}
	if len(ser.Windows) != 1 {
		t.Fatalf("%d windows, want 1", len(ser.Windows))
	}
	want := []float64{1, 0, 0}
	for p, v := range ser.Windows[0].ProcSeconds {
		if v != want[p] {
			t.Errorf("rank %d busy = %g, want %g", p, v, want[p])
		}
	}
	sts := ser.Stats()
	if sts[0].ID == nil {
		t.Fatal("ID undefined for a busy window")
	}
	wantID, err := stats.EuclideanFromBalance(want)
	if err != nil {
		t.Fatal(err)
	}
	if *sts[0].ID != wantID {
		t.Errorf("ID = %g, want %g", *sts[0].ID, wantID)
	}
}

func TestFoldTracksDominantActivity(t *testing.T) {
	var lg trace.Log
	for _, e := range []trace.Event{
		{Rank: 0, Region: "r", Activity: "compute", Start: 0, End: 0.9},
		{Rank: 0, Region: "r", Activity: "wait", Start: 0.9, End: 1.0},
		{Rank: 1, Region: "r", Activity: "wait", Start: 1.0, End: 2.0},
	} {
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	ser, err := FoldLog(&lg, Options{Window: 1, TrackActivities: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := ser.Windows[0].Dominant; got != "compute" {
		t.Errorf("window 0 dominant = %q, want compute", got)
	}
	if got := ser.Windows[1].Dominant; got != "wait" {
		t.Errorf("window 1 dominant = %q, want wait", got)
	}
	sts := ser.Stats()
	if sts[0].Dominant != "compute" || sts[1].Dominant != "wait" {
		t.Errorf("stats dominants = %q, %q", sts[0].Dominant, sts[1].Dominant)
	}
}

// TestFoldNegativeStartFloors: the shared fold floors negative starts
// into the negative-index windows covering them instead of truncating
// them into window 0 — the bug that forced the monitor to reject
// negative starts at Record. The monitor still rejects them; offline
// logs may carry them.
func TestFoldNegativeStartFloors(t *testing.T) {
	f := NewFold(Options{Window: 1})
	f.Add(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: -1.5, End: 0.5})
	ser := f.Series()
	if len(ser.Windows) != 3 {
		t.Fatalf("%d windows, want 3 (indices -2, -1, 0)", len(ser.Windows))
	}
	wantIdx := []int{-2, -1, 0}
	wantBusy := []float64{0.5, 1, 0.5}
	for i, v := range ser.Windows {
		if v.Index != wantIdx[i] {
			t.Errorf("window %d index = %d, want %d", i, v.Index, wantIdx[i])
		}
		if math.Abs(v.ProcSeconds[0]-wantBusy[i]) > 1e-12 {
			t.Errorf("window %d busy = %g, want %g", v.Index, v.ProcSeconds[0], wantBusy[i])
		}
	}
}

func TestSeriesStatsNullIDForIdleWindow(t *testing.T) {
	f := NewFold(Options{Window: 1})
	f.Add(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0.5, End: 0.5})
	sts := f.Series().Stats()
	if len(sts) != 1 {
		t.Fatalf("%d windows, want 1", len(sts))
	}
	if sts[0].ID != nil {
		t.Errorf("all-idle window ID = %g, want null", *sts[0].ID)
	}
	if sts[0].Events != 1 || sts[0].Busy != 0 {
		t.Errorf("window = %+v, want 1 event and no busy time", sts[0])
	}
}

func TestFoldLogRejectsBadWindow(t *testing.T) {
	var lg trace.Log
	if _, err := FoldLog(&lg, Options{Window: 0}); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := FoldLog(nil, Options{Window: 1}); err == nil {
		t.Error("nil log accepted")
	}
}

// TestStatsMatchSummaries sanity-checks the trajectory arithmetic on a
// hand-computed example.
func TestStatsMatchSummaries(t *testing.T) {
	f := NewFold(Options{Window: 2})
	f.Add(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 2})
	f.Add(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: 0, End: 1})
	sts := f.Series().Stats()
	if len(sts) != 1 {
		t.Fatalf("%d windows, want 1", len(sts))
	}
	w := sts[0]
	if w.Busy != 3 {
		t.Errorf("busy = %g, want 3", w.Busy)
	}
	wantID, err := stats.EuclideanFromBalance([]float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.ID == nil || *w.ID != wantID {
		t.Errorf("ID = %v, want %g", w.ID, wantID)
	}
	if g := GiniOf([]float64{2, 1}); w.Gini != g {
		t.Errorf("gini = %g, want %g", w.Gini, g)
	}
}
