package monitor

import (
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"loadimb/internal/apps"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// syntheticEvents is a small trace with repeated cells, an idle rank in
// one region, and a straggler event defining the span.
func syntheticEvents() []trace.Event {
	return []trace.Event{
		{Rank: 0, Region: "r1", Activity: "comp", Start: 0, End: 1},
		{Rank: 1, Region: "r1", Activity: "comp", Start: 0, End: 2.5},
		{Rank: 0, Region: "r1", Activity: "comm", Start: 1, End: 1.25},
		{Rank: 0, Region: "r2", Activity: "comp", Start: 1.25, End: 2},
		{Rank: 1, Region: "r2", Activity: "comm", Start: 2.5, End: 4},
		{Rank: 0, Region: "r1", Activity: "comp", Start: 2, End: 2.75}, // second visit folds in
		{Rank: 2, Region: "r2", Activity: "comp", Start: 0, End: 9},    // straggler sets the span
	}
}

func aggregated(t *testing.T, events []trace.Event, regions, activities []string) *trace.Cube {
	t.Helper()
	var log trace.Log
	for _, e := range events {
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := log.Aggregate(regions, activities)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func TestCollectorFoldsEventsLikeAggregate(t *testing.T) {
	regions := []string{"r1", "r2"}
	activities := []string{"comp", "comm"}
	c := NewCollector(Options{Regions: regions, Activities: activities})
	for _, e := range syntheticEvents() {
		c.Record(e)
	}
	snap := c.Snapshot()
	if snap.Cube == nil {
		t.Fatal("snapshot cube is nil after recording events")
	}
	want := aggregated(t, syntheticEvents(), regions, activities)
	if !snap.Cube.EqualWithin(want, 1e-12) {
		t.Fatalf("live cube differs from offline aggregate\nlive T=%g offline T=%g",
			snap.Cube.ProgramTime(), want.ProgramTime())
	}
	if snap.Events != uint64(len(syntheticEvents())) {
		t.Errorf("Events = %d, want %d", snap.Events, len(syntheticEvents()))
	}
	if snap.Span != 9 {
		t.Errorf("Span = %g, want 9", snap.Span)
	}
	// Cell duration stats: r1/comp saw three events of 1, 2.5, 0.75.
	acc := snap.CellStats[0][0]
	if acc.N() != 3 || math.Abs(acc.Sum()-4.25) > 1e-12 {
		t.Errorf("r1/comp stats N=%d sum=%g, want 3 events summing 4.25", acc.N(), acc.Sum())
	}
}

func TestCollectorIncrementalSnapshots(t *testing.T) {
	c := NewCollector(Options{})
	events := syntheticEvents()
	for _, e := range events[:3] {
		c.Record(e)
	}
	first := c.Snapshot()
	if first.Cube == nil || first.Events != 3 {
		t.Fatalf("first snapshot: cube=%v events=%d", first.Cube, first.Events)
	}
	for _, e := range events[3:] {
		c.Record(e)
	}
	// Latest still serves the old snapshot until the next fold.
	if got := c.Latest(); got != first {
		t.Fatal("Latest changed without a Snapshot call")
	}
	second := c.Snapshot()
	if second.Events != uint64(len(events)) {
		t.Fatalf("second snapshot events = %d, want %d", second.Events, len(events))
	}
	// The first snapshot must be unaffected by later folding.
	if first.Cube.NumRegions() != 1 || first.Events != 3 {
		t.Error("earlier snapshot mutated by later events")
	}
	want := aggregated(t, events, nil, nil)
	if second.Cube.RegionsTotal() != want.RegionsTotal() {
		t.Errorf("incremental total %g, want %g", second.Cube.RegionsTotal(), want.RegionsTotal())
	}
}

func TestCollectorDropsMalformed(t *testing.T) {
	c := NewCollector(Options{})
	bad := []trace.Event{
		{Rank: -1, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: DefaultMaxRank + 1, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: 0, Region: "", Activity: "a", Start: 0, End: 1},
		{Rank: 0, Region: "r", Activity: "", Start: 0, End: 1},
		{Rank: 0, Region: "r", Activity: "a", Start: 2, End: 1},
		{Rank: 0, Region: "r", Activity: "a", Start: -1, End: 1},
		{Rank: 0, Region: "r", Activity: "a", Start: math.NaN(), End: 1},
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: math.NaN()},
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: math.Inf(1)},
		{Rank: 0, Region: "r", Activity: "a", Start: math.Inf(1), End: math.Inf(1)},
	}
	for _, e := range bad {
		c.Record(e)
	}
	snap := c.Snapshot()
	if snap.Cube != nil {
		t.Error("malformed events produced a cube")
	}
	if snap.Dropped != uint64(len(bad)) || snap.Events != 0 {
		t.Errorf("dropped=%d events=%d, want %d and 0", snap.Dropped, snap.Events, len(bad))
	}
}

func TestCollectorWindowing(t *testing.T) {
	c := NewCollector(Options{Window: 1})
	// Rank 0 busy the whole [0, 3); rank 1 only in [0, 1) and the tail
	// of window 2 — imbalance grows over time.
	c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 3})
	c.Record(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: 0, End: 1})
	c.Record(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: 2.75, End: 3})
	snap := c.Snapshot()
	if len(snap.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(snap.Windows))
	}
	w0, w1, w2 := snap.Windows[0], snap.Windows[1], snap.Windows[2]
	if w0.Busy != 2 || w1.Busy != 1 || math.Abs(w2.Busy-1.25) > 1e-12 {
		t.Errorf("busy = %g, %g, %g; want 2, 1, 1.25", w0.Busy, w1.Busy, w2.Busy)
	}
	// Window 0 is perfectly balanced; window 1 maximally imbalanced.
	if w0.ID == nil || *w0.ID != 0 || w0.Gini != 0 {
		t.Errorf("window 0 should be balanced: ID=%v gini=%g", w0.ID, w0.Gini)
	}
	if w1.ID == nil || w2.ID == nil {
		t.Fatalf("busy windows have undefined ID: %+v", snap.Windows)
	}
	if *w1.ID <= *w2.ID || w1.Gini <= w2.Gini {
		t.Errorf("window 1 (one idle rank) should be more imbalanced than window 2: ID %g vs %g", *w1.ID, *w2.ID)
	}
	if w0.Start != 0 || w0.End != 1 || w2.Index != 2 {
		t.Errorf("window bounds wrong: %+v", snap.Windows)
	}
}

// TestCollectorLiveWorkload attaches a collector to a real simulated
// application and checks the live cube equals the post-mortem one.
func TestCollectorLiveWorkload(t *testing.T) {
	cfg := apps.DefaultWavefront()
	cfg.Procs = 6
	cfg.Sweeps = 4
	offline, err := apps.Wavefront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(Options{
		Window:     offline.Makespan / 8,
		Regions:    offline.Cube.Regions(),
		Activities: offline.Cube.Activities(),
	})
	cfg.Sink = c
	live, err := apps.Wavefront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Cube == nil {
		t.Fatal("no live cube")
	}
	if !snap.Cube.EqualWithin(live.Cube, 1e-9) {
		t.Error("live cube differs from the run's own aggregate")
	}
	if !snap.Cube.EqualWithin(offline.Cube, 1e-9) {
		t.Error("live cube differs across identical deterministic runs")
	}
	if int(snap.Events) != live.Log.Len() {
		t.Errorf("collector saw %d events, log holds %d", snap.Events, live.Log.Len())
	}
	if len(snap.Windows) == 0 {
		t.Error("windowing enabled but no windows recorded")
	}
}

// TestCollectorRejectsNegativeStart is the regression test for the
// window-corruption bug: int(Start/window) truncates toward zero, so a
// negative-start event used to land its entire busy time in window 0.
// Such events must be rejected at Record like the other malformed shapes.
func TestCollectorRejectsNegativeStart(t *testing.T) {
	c := NewCollector(Options{Window: 1})
	c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0.25, End: 0.75})
	c.Record(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: -3, End: 0.5})
	snap := c.Snapshot()
	if snap.Dropped != 1 || snap.Events != 1 {
		t.Fatalf("dropped=%d events=%d, want 1 and 1", snap.Dropped, snap.Events)
	}
	if len(snap.Windows) != 1 {
		t.Fatalf("got %d windows, want 1", len(snap.Windows))
	}
	if w := snap.Windows[0]; w.Index != 0 || w.Busy != 0.5 || w.Events != 1 {
		t.Errorf("window 0 corrupted by negative-start event: %+v", w)
	}
	if snap.Cube.NumProcs() != 1 {
		t.Errorf("rejected event grew the cube to %d procs", snap.Cube.NumProcs())
	}
}

// TestSnapshotEventsMatchCube drives recorders concurrently with
// snapshotters and checks, for every published snapshot, that Events is
// exactly the number of events the cube accounts for (the cell duration
// accumulators count one Add per folded event). Before the drain-time
// counter fix, Snapshot read the racing Record counter after draining and
// could claim events the cube did not contain. Run with -race.
func TestSnapshotEventsMatchCube(t *testing.T) {
	const (
		writers       = 4
		eventsPerRank = 3000
		snapshots     = 60
	)
	c := NewCollector(Options{Window: 50})
	var wg sync.WaitGroup
	for rank := 0; rank < writers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < eventsPerRank; i++ {
				start := float64(i)
				c.Record(trace.Event{
					Rank:     rank,
					Region:   "r",
					Activity: "a",
					Start:    start,
					End:      start + 0.25,
				})
			}
		}(rank)
	}
	countFolded := func(snap *Snapshot) uint64 {
		var n uint64
		for i := range snap.CellStats {
			for j := range snap.CellStats[i] {
				n += uint64(snap.CellStats[i][j].N())
			}
		}
		return n
	}
	for i := 0; i < snapshots; i++ {
		snap := c.Snapshot()
		if folded := countFolded(snap); snap.Events != folded {
			t.Fatalf("snapshot %d: Events=%d but the cube accounts for %d events",
				i, snap.Events, folded)
		}
	}
	wg.Wait()
	snap := c.Snapshot()
	want := uint64(writers * eventsPerRank)
	if snap.Events != want || countFolded(snap) != want {
		t.Fatalf("final Events=%d folded=%d, want %d", snap.Events, countFolded(snap), want)
	}
}

// TestCollectorWindowClippingOracle asserts the live window fold against
// the offline Log.Window oracle on the boundary shapes that matter:
// zero-duration events (mid-window and exactly on a boundary), events
// ending exactly on a boundary, and events spanning three or more
// windows.
func TestCollectorWindowClippingOracle(t *testing.T) {
	const window = 1.0
	events := []trace.Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0.5, End: 0.5},   // zero-duration, mid-window
		{Rank: 0, Region: "r", Activity: "a", Start: 1, End: 1},       // zero-duration, on a boundary: no window
		{Rank: 0, Region: "r", Activity: "a", Start: 0.25, End: 1},    // ends exactly on a boundary
		{Rank: 1, Region: "r", Activity: "a", Start: 1, End: 2},       // covers window 1 exactly
		{Rank: 0, Region: "r", Activity: "a", Start: 1.5, End: 4.75},  // spans windows 1..4
		{Rank: 2, Region: "r", Activity: "a", Start: 0, End: 3},       // spans 0..2, both ends on boundaries
		{Rank: 1, Region: "r", Activity: "a", Start: 4.25, End: 4.25}, // zero-duration in the last window
	}
	c := NewCollector(Options{Window: window})
	var lg trace.Log
	for _, e := range events {
		c.Record(e)
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	procs := snap.Cube.NumProcs()
	byIndex := make(map[int]WindowStat, len(snap.Windows))
	for _, w := range snap.Windows {
		byIndex[w.Index] = w
	}
	for w := 0; w < 5; w++ {
		from, to := float64(w)*window, float64(w+1)*window
		oracle, err := lg.Window(from, to)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := byIndex[w]
		if !ok {
			if oracle.Len() != 0 {
				t.Errorf("window %d missing: oracle holds %d events", w, oracle.Len())
			}
			continue
		}
		if got.Events != oracle.Len() {
			t.Errorf("window %d events = %d, oracle %d", w, got.Events, oracle.Len())
		}
		perRank := make([]float64, procs)
		for _, e := range oracle.Events() {
			perRank[e.Rank] += e.Duration()
		}
		busy := 0.0
		for _, v := range perRank {
			busy += v
		}
		if math.Abs(got.Busy-busy) > 1e-12 {
			t.Errorf("window %d busy = %g, oracle %g", w, got.Busy, busy)
		}
		if id, err := stats.EuclideanFromBalance(perRank); err != nil {
			if got.ID != nil {
				t.Errorf("window %d: oracle dispersion undefined (%v) but live ID = %g", w, err, *got.ID)
			}
		} else if got.ID == nil || math.Abs(*got.ID-id) > 1e-12 {
			t.Errorf("window %d ID = %v, oracle %g", w, got.ID, id)
		}
	}
	// Window 3 is covered only by the middle of the long event; window 0
	// contains the mid-window zero-duration event on top of two clipped
	// spans. Spot-check the totals the oracle math above derived.
	if w := byIndex[0]; w.Events != 3 || math.Abs(w.Busy-1.75) > 1e-12 {
		t.Errorf("window 0 = %+v, want 3 events and busy 1.75", w)
	}
	if w := byIndex[3]; w.Events != 1 || math.Abs(w.Busy-1) > 1e-12 {
		t.Errorf("window 3 = %+v, want 1 event and busy 1", w)
	}
}

// TestWindowAllIdleServesNullID: a window holding only zero-duration
// events has no busy time, so its dispersion is undefined — the snapshot
// must carry a nil ID (JSON null) rather than a misleading "perfectly
// balanced" zero.
func TestWindowAllIdleServesNullID(t *testing.T) {
	c := NewCollector(Options{Window: 1})
	c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1}) // busy window 0
	c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 2.5, End: 2.5})
	snap := c.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(snap.Windows), snap.Windows)
	}
	busy, idle := snap.Windows[0], snap.Windows[1]
	if busy.ID == nil || *busy.ID != 0 {
		t.Errorf("busy window ID = %v, want 0", busy.ID)
	}
	if idle.Index != 2 || idle.Busy != 0 || idle.Events != 1 {
		t.Fatalf("idle window = %+v, want index 2, busy 0, 1 event", idle)
	}
	if idle.ID != nil {
		t.Errorf("all-idle window ID = %g, want nil", *idle.ID)
	}
	if idle.Gini != 0 {
		t.Errorf("all-idle window Gini = %g, want 0", idle.Gini)
	}
	// The wire form must be an explicit null.
	data, err := json.Marshal(idle)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"id":null`) {
		t.Errorf("serialized idle window %s does not carry an explicit null id", data)
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	const (
		writers        = 8
		eventsPerRank  = 2000
		snapshotRounds = 50
	)
	c := NewCollector(Options{Window: 10})
	var wg sync.WaitGroup
	for rank := 0; rank < writers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < eventsPerRank; i++ {
				start := float64(i)
				c.Record(trace.Event{
					Rank:     rank,
					Region:   "r",
					Activity: "a",
					Start:    start,
					End:      start + 0.5,
				})
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < snapshotRounds; i++ {
			snap := c.Snapshot()
			if snap != nil && snap.Cube != nil && snap.Cube.RegionsTotal() < 0 {
				t.Error("negative total in concurrent snapshot")
			}
		}
	}()
	wg.Wait()
	<-done
	snap := c.Snapshot()
	wantEvents := uint64(writers * eventsPerRank)
	if snap.Events != wantEvents {
		t.Fatalf("events = %d, want %d", snap.Events, wantEvents)
	}
	wantTotal := float64(writers*eventsPerRank) * 0.5
	got := snap.Cube.RegionsTotal() * float64(snap.Cube.NumProcs())
	if math.Abs(got-wantTotal) > 1e-6 {
		t.Fatalf("total processor-seconds = %g, want %g", got, wantTotal)
	}
}

// TestRecordBoundedWithoutConsumer: a collector nobody scrapes must not
// grow with the events recorded into it. Four recorders refill the Record
// ring over and over with no Snapshot or Fold; each full ring folds in
// place into the running totals, whose cells and windows this stream
// fills within its first few events, so recording allocates next to
// nothing — not the 14 MiB the events themselves occupy.
func TestRecordBoundedWithoutConsumer(t *testing.T) {
	const (
		writers   = 4
		perWriter = 65536
	)
	c := NewCollector(Options{Window: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for rank := 0; rank < writers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				start := float64(i%100) / 10
				c.Record(trace.Event{Rank: rank, Region: "r", Activity: "a", Start: start, End: start + 0.05})
			}
		}(rank)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("recording %d events with no consumer allocated %d bytes, want < 1 MiB", writers*perWriter, grew)
	}
	if snap := c.Snapshot(); snap.Events != writers*perWriter {
		t.Fatalf("final snapshot has %d events, want %d", snap.Events, writers*perWriter)
	}
}

// TestCollectorMaxRank: the rank bound is configurable and enforced
// before the fold, so a single wild-rank event can never force the fold
// to allocate per-rank state for ranks no real machine has (the
// remote-DoS shape: one ~20-byte wire frame claiming rank 2^50).
func TestCollectorMaxRank(t *testing.T) {
	c := NewCollector(Options{MaxRank: 7})
	c.Record(trace.Event{Rank: 7, Region: "r", Activity: "a", Start: 0, End: 1})
	c.Record(trace.Event{Rank: 8, Region: "r", Activity: "a", Start: 0, End: 1})
	snap := c.Snapshot()
	if snap.Events != 1 || snap.Dropped != 1 {
		t.Fatalf("events=%d dropped=%d, want 1 and 1", snap.Events, snap.Dropped)
	}
	if snap.Cube.NumProcs() != 8 {
		t.Errorf("cube has %d procs, want 8 (rank 7 kept, rank 8 dropped)", snap.Cube.NumProcs())
	}

	// Negative selects the default bound; there is no unbounded mode.
	u := NewCollector(Options{MaxRank: -1})
	u.Record(trace.Event{Rank: 8, Region: "r", Activity: "a", Start: 0, End: 1})
	u.Record(trace.Event{Rank: DefaultMaxRank + 1, Region: "r", Activity: "a", Start: 0, End: 1})
	if snap := u.Snapshot(); snap.Events != 1 || snap.Dropped != 1 {
		t.Errorf("MaxRank -1: events=%d dropped=%d, want 1 and 1 (default bound)", snap.Events, snap.Dropped)
	}
}

// TestCollectorWindowCapDefault: a WindowCap of 0 or below selects
// temporal.DefaultWindowCap; the live window series has no unbounded
// mode.
func TestCollectorWindowCapDefault(t *testing.T) {
	for _, winCap := range []int{0, -1} {
		c := NewCollector(Options{Window: 1, WindowCap: winCap})
		for w := 0; w < temporal.DefaultWindowCap+64; w++ {
			start := float64(w)
			c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: start, End: start + 0.5})
		}
		ser := c.Snapshot().Series
		if n := len(ser.Windows); n > temporal.DefaultWindowCap || ser.CoarseWindow == 0 {
			t.Errorf("WindowCap %d: ring holds %d windows, coarse width %g; want at most %d and a decimated tail",
				winCap, n, ser.CoarseWindow, temporal.DefaultWindowCap)
		}
	}
}

// TestCollectorPhasePenalty: Options.PhasePenalty is the penalty each
// snapshot segments with. A level shift splits under the automatic
// penalty and stays one phase under a huge one.
func TestCollectorPhasePenalty(t *testing.T) {
	for _, tc := range []struct {
		penalty float64
		phases  int
	}{{0, 2}, {1e6, 1}} {
		c := NewCollector(Options{Window: 1, PhasePenalty: tc.penalty})
		for w := 0; w < 20; w++ {
			s, d := float64(w), 0.5
			if w >= 10 {
				d = 0.9
			}
			c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: s, End: s + d})
			c.Record(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: s, End: s + 0.5})
		}
		if n := len(c.Snapshot().Phases); n != tc.phases {
			t.Errorf("PhasePenalty %g: %d phases, want %d", tc.penalty, n, tc.phases)
		}
	}
}

// TestPhaseFreeRingHeap: a steady run gives a trajectory with no change
// point, on which PELT prunes no candidate. Segmenting the full ring
// must not keep per-step candidate history: with 8 ranks and a full
// 4,096-window ring, the collector and its snapshot keep about 7 MiB,
// where a history of every step's candidates kept over 64 MiB more.
func TestPhaseFreeRingHeap(t *testing.T) {
	const ranks = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCollector(Options{Window: 1})
	for w := 0; w < temporal.DefaultWindowCap; w++ {
		s := float64(w)
		for r := 0; r < ranks; r++ {
			c.Record(trace.Event{Rank: r, Region: "loop", Activity: "computation", Start: s, End: s + 0.5})
		}
	}
	snap := c.Snapshot()
	if n := len(snap.Windows); n != temporal.DefaultWindowCap {
		t.Fatalf("ring holds %d windows, want %d", n, temporal.DefaultWindowCap)
	}
	if n := len(snap.Phases); n != 1 {
		t.Fatalf("%d phases on steady work, want 1", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	runtime.KeepAlive(snap)
	if kept := int64(after.HeapInuse) - int64(before.HeapInuse); kept >= 24<<20 {
		t.Fatalf("collector and snapshot keep %.1f MiB of heap, want < 24 MiB", float64(kept)/(1<<20))
	} else {
		t.Logf("collector and snapshot keep %.1f MiB of heap", float64(kept)/(1<<20))
	}
}

// TestFoldSparseDimensions: a window's state is proportional to the
// dimensions that window touched, not to every name the collector has
// seen. Window 0 records 4,096 region names, then 1,000 windows record
// one event each of the last name. A per-window layout spanning every
// region would add about 94 MiB here; the bound is 32 MiB.
func TestFoldSparseDimensions(t *testing.T) {
	const (
		regions = 4096
		windows = 1000
	)
	names := make([]string, regions)
	for i := range names {
		names[i] = "region " + strconv.Itoa(i)
	}
	last := names[regions-1]
	c := NewCollector(Options{Window: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range names {
		c.Record(trace.Event{Rank: 0, Region: r, Activity: "computation", Start: 0.1, End: 0.2})
	}
	for w := 1; w <= windows; w++ {
		s := float64(w) + 0.1
		c.Record(trace.Event{Rank: 0, Region: last, Activity: "computation", Start: s, End: s + 0.5})
	}
	snap := c.Snapshot()
	runtime.ReadMemStats(&after)
	if n := len(snap.Series.Windows); n != windows+1 {
		t.Fatalf("series holds %d windows, want %d", n, windows+1)
	}
	if n := len(snap.Series.Windows[0].PerRegion); n != regions {
		t.Fatalf("window 0 holds %d region vectors, want %d", n, regions)
	}
	if n := len(snap.Series.Windows[windows].PerRegion); n != 1 {
		t.Fatalf("window %d holds %d region vectors, want 1", windows, n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 32<<20 {
		t.Fatalf("recording and snapshotting allocated %.1f MiB, want < 32 MiB", float64(grew)/(1<<20))
	} else {
		t.Logf("allocated %.1f MiB", float64(grew)/(1<<20))
	}
}
