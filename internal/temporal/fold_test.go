package temporal

import (
	"math"
	"reflect"
	"testing"

	"loadimb/internal/stats"
	"loadimb/internal/trace"
)

// oracleFold is the window-accumulation logic internal/monitor's
// foldState carried before the refactor onto this package, kept
// verbatim as a test oracle: the shared Fold must reproduce it bit for
// bit on every input the monitor accepts (nonnegative rank and start,
// nonnegative duration).
type oracleFold struct {
	procs   int
	windows map[int]*oracleAcc
}

type oracleAcc struct {
	procSeconds []float64
	events      int
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
	}
}

func (s *oracleFold) window(w int) *oracleAcc {
	acc, ok := s.windows[w]
	if !ok {
		acc = &oracleAcc{}
		s.windows[w] = acc
	}
	return acc
}

// checkAgainstOracle folds the events through both implementations and
// requires bit-identical per-window vectors and event counts.
func checkAgainstOracle(t *testing.T, events []trace.Event, window float64) {
	t.Helper()
	f := NewFold(Options{Window: window})
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
		for p, got := range v.ProcSeconds {
			want := 0.0
			if p < len(acc.procSeconds) {
				want = acc.procSeconds[p]
			}
			if got != want { // bit-identical, not approximately equal
				t.Errorf("window %d rank %d busy = %g, oracle %g", v.Index, p, got, want)
			}
		}
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
			}
			events = append(events, trace.Event{
				Rank:     int(rng % 17),
				Region:   "r",
				Activity: []string{"a", "b", "c"}[rng%3],
				Start:    start,
				End:      start + dur,
			})
		}
		checkAgainstOracle(t, events, window)
		// The same stream through a capped fold, whose compactions and
		// coarse re-decimations move accumulators between windows: the
		// cached trajectories must track every step.
		capped := NewFold(Options{Window: window, WindowCap: 16, PerActivity: true, PerRegion: true, TrackActivities: true})
		for _, e := range events {
			capped.Add(e)
			checkTrajectoryCache(t, capped)
		}
	})
}

// checkTrajectoryCache fails if any of the fold's cached summaries
// differs from its stateless computation over the series: the ring and
// coarse trajectories, the dimension names, and the phase summaries built
// from the cached per-activity indices.
func checkTrajectoryCache(t *testing.T, f *Fold) {
	t.Helper()
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
}

// TestFoldTrajectoryCache checks the cached trajectories after every step
// of a stream that exercises each invalidation: windows still growing,
// late events into old ring windows and into sealed (coarse) ones, a new
// rank mid-run that re-pads every window, and a cap small enough that
// compaction and coarse re-decimation happen many times.
func TestFoldTrajectoryCache(t *testing.T) {
	f := NewFold(Options{Window: 1, WindowCap: 16, PerActivity: true, PerRegion: true, TrackActivities: true})
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
		checkTrajectoryCache(t, f)
		if w%7 == 6 {
			f.Add(trace.Event{Rank: 1, Region: "solve", Activity: "wait", Start: float64(w) - 4.5, End: float64(w) - 4.2})
			checkTrajectoryCache(t, f)
		}
		if w%11 == 10 {
			f.Add(trace.Event{Rank: 2, Region: "halo", Activity: "compute", Start: float64(w/3) + 0.1, End: float64(w/3) + 0.9})
			f.Add(trace.Event{Rank: 0, Region: "solve", Activity: "compute", Start: float64(w/5) + 0.5, End: float64(w/5) + 0.5})
			checkTrajectoryCache(t, f)
		}
		if w >= 100 && w < 104 {
			// Names that enter the ring here and leave it once compaction
			// moves these windows out.
			f.Add(trace.Event{Rank: 0, Region: "io", Activity: "read", Start: float64(w) + 0.8, End: float64(w) + 0.9})
			checkTrajectoryCache(t, f)
		}
		if w == 250 {
			// New names landing in a sealed (coarse) window: not the ring's.
			f.Add(trace.Event{Rank: 1, Region: "restart", Activity: "replay", Start: 0.2, End: 0.4})
			checkTrajectoryCache(t, f)
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
