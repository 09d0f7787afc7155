package monitor

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"loadimb/internal/trace"
)

// batchEvents builds a pseudo-random stream with a sprinkling of malformed
// events, so the equivalence tests exercise the drop accounting of every
// intake path alongside the happy path.
func batchEvents(rng *rand.Rand, n, ranks int, withMalformed bool) []trace.Event {
	regions := []string{"loop 1", "loop 2", "halo"}
	activities := []string{"computation", "point-to-point", "collective"}
	events := make([]trace.Event, 0, n)
	cursors := make([]float64, ranks)
	for len(events) < n {
		r := rng.Intn(ranks)
		e := trace.Event{
			Rank:     r,
			Region:   regions[rng.Intn(len(regions))],
			Activity: activities[rng.Intn(len(activities))],
			Start:    cursors[r],
			End:      cursors[r] + rng.Float64()*0.2,
		}
		cursors[r] = e.End
		if withMalformed && rng.Intn(12) == 0 {
			switch rng.Intn(4) {
			case 0:
				e.Rank = -1 - rng.Intn(3)
			case 1:
				e.Region = ""
			case 2:
				e.End = e.Start - 1
			case 3:
				e.Start = -e.Start - 1
			}
		}
		events = append(events, e)
	}
	return events
}

// sameSnapshot asserts bit-for-bit identical fold results: equal counters,
// equal span bits, and deeply equal cube, cell statistics and temporal
// state. reflect.DeepEqual reaches the unexported Welford fields of
// stats.Accumulator, so a cross-rank fold-order difference — which changes
// float rounding — fails here even when the sums agree to a tolerance.
func sameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Events != want.Events || got.Dropped != want.Dropped {
		t.Fatalf("counters: got events=%d dropped=%d, want events=%d dropped=%d",
			got.Events, got.Dropped, want.Events, want.Dropped)
	}
	if math.Float64bits(got.Span) != math.Float64bits(want.Span) {
		t.Fatalf("span bits differ: %x vs %x", math.Float64bits(got.Span), math.Float64bits(want.Span))
	}
	sameCube(t, got.Cube, want.Cube)
	if !reflect.DeepEqual(got.CellStats, want.CellStats) {
		t.Fatal("cell duration accumulators differ")
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatal("window series differ")
	}
	if !reflect.DeepEqual(got.Windows, want.Windows) || !reflect.DeepEqual(got.Coarse, want.Coarse) {
		t.Fatal("window trajectories differ")
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Fatal("phase segmentations differ")
	}
}

// sameCube compares two cubes cell by cell at the bit level. (The cube
// struct itself cannot be DeepEqual'd: its marginal cache is an atomic
// pointer, distinct between any two instances.)
func sameCube(t *testing.T, got, want *trace.Cube) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("one snapshot has a cube, the other does not (got %v, want %v)", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if !reflect.DeepEqual(got.Regions(), want.Regions()) ||
		!reflect.DeepEqual(got.Activities(), want.Activities()) ||
		got.NumProcs() != want.NumProcs() {
		t.Fatalf("cube dimensions differ: (%v,%v,%d) vs (%v,%v,%d)",
			got.Regions(), got.Activities(), got.NumProcs(),
			want.Regions(), want.Activities(), want.NumProcs())
	}
	if math.Float64bits(got.ProgramTime()) != math.Float64bits(want.ProgramTime()) {
		t.Fatalf("program times differ: %v vs %v", got.ProgramTime(), want.ProgramTime())
	}
	for i := 0; i < got.NumRegions(); i++ {
		for j := 0; j < got.NumActivities(); j++ {
			for p := 0; p < got.NumProcs(); p++ {
				g, _ := got.At(i, j, p)
				w, _ := want.At(i, j, p)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("cell (%d,%d,%d): %v vs %v", i, j, p, g, w)
				}
			}
		}
	}
}

// TestRecordBatchEquivalence: RecordBatch over arbitrary chunkings must be
// bit-for-bit identical to per-event Record — same drops, same record
// order, therefore the same fold — including a mid-stream snapshot that
// exercises the ring drain on both collectors.
func TestRecordBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		events := batchEvents(rng, 400+rng.Intn(400), 9, true)
		opts := Options{Window: 0.25}
		ref := NewCollector(opts)
		bat := NewCollector(opts)

		mid := len(events) / 2
		feed := func(from, to int) {
			for _, e := range events[from:to] {
				ref.Record(e)
			}
			for i := from; i < to; {
				j := i + 1 + rng.Intn(to-i)
				bat.RecordBatch(events[i:j])
				i = j
			}
		}
		feed(0, mid)
		sameSnapshot(t, bat.Snapshot(), ref.Snapshot())
		feed(mid, len(events))
		sameSnapshot(t, bat.Snapshot(), ref.Snapshot())
	}
}

// TestProducerEquivalence: per-rank SPSC producers must reproduce the
// per-event Record fold bit for bit when the fold order matches. The
// producers are registered in rank order, so a fold drains rank 0's
// events first, then rank 1's, and so on; the reference collector records
// the stream stably sorted by rank, so its Record ring folds in exactly
// that order.
func TestProducerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const ranks = 8
	events := batchEvents(rng, 1200, ranks, true)
	opts := Options{Window: 0.25}
	ref := NewCollector(opts)
	prod := NewCollector(opts)

	producers := make([]*Producer, ranks)
	for r := range producers {
		producers[r] = prod.Producer(ProducerOptions{})
	}
	for _, e := range events {
		r := e.Rank
		if r < 0 {
			// Malformed rank: any producer counts the drop identically.
			r = 0
		}
		producers[r%ranks].RecordBatch([]trace.Event{e})
	}
	sorted := append([]trace.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	for _, e := range sorted {
		ref.Record(e)
	}
	sameSnapshot(t, prod.Snapshot(), ref.Snapshot())

	// Closed, drained producers are pruned at the next fold; only the
	// collector's own Record ring stays registered.
	for _, p := range producers {
		p.Close()
	}
	prod.Fold()
	prod.prodMu.Lock()
	left := append([]*Producer(nil), prod.producers...)
	prod.prodMu.Unlock()
	if len(left) != 1 || left[0] != prod.rec {
		t.Fatalf("%d producers still registered after fold, want only the Record ring", len(left))
	}
}

// TestProducerDropOnFull: a full ring in drop mode discards the overflow
// without blocking, counts it on the producer, and never corrupts the
// collector's event accounting.
func TestProducerDropOnFull(t *testing.T) {
	c := NewCollector(Options{})
	p := c.Producer(ProducerOptions{DropOnFull: true})
	events := batchEvents(rand.New(rand.NewSource(5)), DefaultIngestRing+92, 1, false)
	p.RecordBatch(events)
	if p.Dropped() != 92 {
		t.Fatalf("dropped %d events, want 92", p.Dropped())
	}
	snap := c.Snapshot()
	if snap.Events != DefaultIngestRing {
		t.Fatalf("snapshot has %d events, want the %d that fit the ring", snap.Events, DefaultIngestRing)
	}
	if c.Dropped() != 0 {
		t.Fatalf("ring drops leaked into the malformed-event counter: %d", c.Dropped())
	}
}

// TestProducerBackpressure: in blocking mode nothing is lost — the
// producer stalls until the consumer folds the ring, so every event
// arrives even from a batch of more than two rings.
func TestProducerBackpressure(t *testing.T) {
	c := NewCollector(Options{})
	p := c.Producer(ProducerOptions{})
	events := batchEvents(rand.New(rand.NewSource(6)), 2*DefaultIngestRing+1000, 1, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.RecordBatch(events)
		p.Close()
	}()
	folded := 0
	for folded < len(events) {
		folded += c.Fold()
		runtime.Gosched()
	}
	<-done
	if snap := c.Snapshot(); snap.Events != uint64(len(events)) {
		t.Fatalf("snapshot has %d events, want %d", snap.Events, len(events))
	}
}

// TestProducerDropsMalformed: the producer path applies exactly Record's
// validity rule, charging malformed events to the collector's counter and
// never to the ring-overflow counter.
func TestProducerDropsMalformed(t *testing.T) {
	c := NewCollector(Options{})
	p := c.Producer(ProducerOptions{})
	p.RecordBatch([]trace.Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: -1, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: 1, Region: "", Activity: "a", Start: 0, End: 1},
		{Rank: 1, Region: "r", Activity: "a", Start: 2, End: 1},
	})
	if c.Dropped() != 3 {
		t.Fatalf("malformed counter = %d, want 3", c.Dropped())
	}
	if p.Dropped() != 0 {
		t.Fatalf("ring-drop counter = %d, want 0", p.Dropped())
	}
	if snap := c.Snapshot(); snap.Events != 1 || snap.Dropped != 3 {
		t.Fatalf("snapshot events=%d dropped=%d, want 1, 3", snap.Events, snap.Dropped)
	}
}

// TestProducerRecordBatchAllocs is the acceptance guard of the zero-alloc
// claim: the steady-state producer publish path must perform no heap
// allocations at all.
func TestProducerRecordBatchAllocs(t *testing.T) {
	c := NewCollector(Options{})
	// AllocsPerRun's warmup call plus every measured run fit the ring
	// without a drain (and therefore without ever stalling).
	p := c.Producer(ProducerOptions{})
	batch := batchEvents(rand.New(rand.NewSource(7)), 512, 4, false)
	allocs := testing.AllocsPerRun(100, func() {
		p.RecordBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("producer RecordBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestSteadyStateFoldAllocs: after warmup, a RecordBatch+Fold cycle —
// publish into the Record ring, fold, drain — reaches an allocation
// fixpoint: each 512-event batch fills the 256-event ring, so the recorder
// folds it once in place mid-batch and Fold drains the rest; no buffer is
// copied or regrown, and the fold state has seen every cell and rank.
func TestSteadyStateFoldAllocs(t *testing.T) {
	c := NewCollector(Options{})
	batch := batchEvents(rand.New(rand.NewSource(8)), 512, 4, false)
	for i := 0; i < 4; i++ { // reach the fixpoint: every cell and rank seen
		c.RecordBatch(batch)
		c.Fold()
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.RecordBatch(batch)
		c.Fold()
	})
	if allocs != 0 {
		t.Fatalf("steady-state RecordBatch+Fold allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestSteadyStateProducerFoldAllocs: the same fixpoint for a Producer
// ring — the drain folds spans in place, so producer publish plus fold
// settles to zero allocations per cycle. With windowing on, the replayed
// batch folds into windows that already hold every vector it touches, so
// the window fold allocates nothing either.
func TestSteadyStateProducerFoldAllocs(t *testing.T) {
	for _, window := range []float64{0, 1} {
		c := NewCollector(Options{Window: window})
		p := c.Producer(ProducerOptions{})
		batch := batchEvents(rand.New(rand.NewSource(9)), 512, 4, false)
		for i := 0; i < 4; i++ {
			p.RecordBatch(batch)
			c.Fold()
		}
		allocs := testing.AllocsPerRun(50, func() {
			p.RecordBatch(batch)
			c.Fold()
		})
		if allocs != 0 {
			t.Errorf("window %g: steady-state producer+Fold allocates %.1f objects per cycle, want 0", window, allocs)
		}
	}
}

// TestFoldThenSnapshot: events folded by a background Fold — which
// publishes nothing — must appear in the next Snapshot; the snapshot
// re-serve fast path must not mistake an empty drain for "nothing new".
func TestFoldThenSnapshot(t *testing.T) {
	c := NewCollector(Options{})
	before := c.Snapshot()
	c.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1})
	if folded := c.Fold(); folded != 1 {
		t.Fatalf("Fold folded %d events, want 1", folded)
	}
	after := c.Snapshot()
	if after.Events != 1 {
		t.Fatalf("snapshot after background fold has %d events, want 1", after.Events)
	}
	if after.Gen == before.Gen {
		t.Fatal("snapshot generation did not advance over new content")
	}
	// And with nothing new, the same snapshot is re-served.
	if again := c.Snapshot(); again != after {
		t.Fatal("unchanged collector rebuilt its snapshot")
	}
}

// TestBatchCounterDiscipline is the regression test for the batched
// counter bump: even though RecordBatch adds to c.events once per batch,
// a snapshot racing with concurrent batches must never claim events its
// cube does not account for (the discipline documented at Snapshot). All
// durations are exactly 1.0, so the cube's total instrumented time counts
// folded events exactly in float64.
func TestBatchCounterDiscipline(t *testing.T) {
	c := NewCollector(Options{})
	const (
		writers       = 4
		perWriter     = 200
		batchSize     = 16
		eventsPerRank = writers * perWriter * batchSize
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]trace.Event, batchSize)
			for i := 0; i < perWriter; i++ {
				for k := range batch {
					s := float64(i*batchSize + k)
					batch[k] = trace.Event{Rank: w, Region: "r", Activity: "a", Start: s, End: s + 1}
				}
				c.RecordBatch(batch)
			}
		}(w)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			snap := c.Snapshot()
			if snap.Cube != nil {
				var total float64
				for _, pt := range snap.ProcTotals() {
					total += pt
				}
				if total != float64(snap.Events) {
					t.Errorf("snapshot claims %d events but cube accounts for %.0f", snap.Events, total)
					return
				}
			} else if snap.Events != 0 {
				t.Errorf("snapshot claims %d events with no cube", snap.Events)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()
	if snap := c.Snapshot(); snap.Events != uint64(writers*perWriter*batchSize) {
		t.Fatalf("final snapshot has %d events, want %d", snap.Events, writers*perWriter*batchSize)
	}
	_ = eventsPerRank
}

// TestConcurrentProducersAndScraper drives the full concurrent surface at
// once — per-event recorders, batched recorders, SPSC producers and a
// snapshotting scraper — for the race detector, and checks that no event
// is lost or double-counted end to end.
func TestConcurrentProducersAndScraper(t *testing.T) {
	// The two producer streams (4 and 5) carry more than a ring of events
	// each, so their blocking producers stall on the scraper's folds. They
	// span ~1,700 virtual seconds per rank; 8 s windows keep the series
	// every scrape rebuilds at a few hundred windows.
	c := NewCollector(Options{Window: 8})
	rng := rand.New(rand.NewSource(11))
	const perSource = 3000
	streams := make([][]trace.Event, 6)
	total := 0
	for i := range streams {
		n := perSource
		if i >= 4 {
			n += DefaultIngestRing
		}
		streams[i] = batchEvents(rand.New(rand.NewSource(int64(100+i))), n, 4, false)
		total += n
	}
	_ = rng

	var wg sync.WaitGroup
	// Two per-event recorders.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(events []trace.Event) {
			defer wg.Done()
			for _, e := range events {
				c.Record(e)
			}
		}(streams[i])
	}
	// Two batched recorders.
	for i := 2; i < 4; i++ {
		wg.Add(1)
		go func(events []trace.Event) {
			defer wg.Done()
			for len(events) > 0 {
				n := 64
				if n > len(events) {
					n = len(events)
				}
				c.RecordBatch(events[:n])
				events = events[n:]
			}
		}(streams[i])
	}
	// Two SPSC producers (blocking mode: the scraper's folds free space).
	for i := 4; i < 6; i++ {
		wg.Add(1)
		go func(events []trace.Event) {
			defer wg.Done()
			p := c.Producer(ProducerOptions{})
			defer p.Close()
			for len(events) > 0 {
				n := 100
				if n > len(events) {
					n = len(events)
				}
				p.RecordBatch(events[:n])
				events = events[n:]
			}
		}(streams[i])
	}
	// Scraper: folds (freeing producer rings) and snapshots concurrently.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			c.Snapshot()
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()
	snap := c.Snapshot()
	if want := uint64(total); snap.Events != want {
		t.Fatalf("final snapshot has %d events, want %d", snap.Events, want)
	}
}
