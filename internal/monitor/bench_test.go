package monitor

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"loadimb/internal/cfd"
	"loadimb/internal/trace"
)

// intakeEvent is the event BenchmarkCollectorRecord and
// BenchmarkRecordBatch publish.
var intakeEvent = trace.Event{Rank: 3, Region: "loop 1", Activity: "computation", Start: 1, End: 2}

// A timer is the part of *testing.B the intake loops use, so that
// TestRecordTimingFloors can time the same loops with a stopwatch.
type timer interface {
	StartTimer()
	StopTimer()
}

// stopwatch is a timer over wall-clock time.
type stopwatch struct {
	start   time.Time
	elapsed time.Duration
}

func (s *stopwatch) StartTimer() { s.start = time.Now() }
func (s *stopwatch) StopTimer()  { s.elapsed += time.Since(s.start) }

// recordEvents is BenchmarkCollectorRecord's loop: n Record calls.
func recordEvents(c *Collector, n int) {
	for i := 0; i < n; i++ {
		c.Record(intakeEvent)
	}
}

// publishBatches is BenchmarkRecordBatch's loop: n events published
// through p in 512-event batches. The ring drains run with tm stopped,
// so only the producer-side publish is timed; the last drain is the
// caller's.
func publishBatches(tm timer, c *Collector, p *Producer, n int) {
	var batch [512]trace.Event
	for i := range batch {
		batch[i] = intakeEvent
	}
	for i := 0; i < n; {
		k := min(len(batch), n-i)
		p.RecordBatch(batch[:k])
		i += k
		if p.Pending() > 1<<15 {
			tm.StopTimer()
			c.Fold()
			tm.StartTimer()
		}
	}
}

// BenchmarkCollectorRecord measures the instrumentation hot path: one
// Record call on an otherwise idle collector. The observability budget is
// < 1 us/event (see EXPERIMENTS.md "Monitoring overhead"), held by
// TestRecordTimingFloors. Nothing else ever drains the Record ring, so
// the recorder folds it itself every 256 events and the per-event cost
// includes that fold, amortized; BenchmarkCollectorRecordWindowed adds
// periodic snapshots and the windowing fold (the deployment shape).
func BenchmarkCollectorRecord(b *testing.B) {
	c := NewCollector(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	recordEvents(c, b.N)
	if c.Events() != uint64(b.N) {
		b.Fatal("lost events")
	}
}

// BenchmarkCollectorRecordParallel measures Record under contention from
// many rank goroutines, the deployment shape of the daemon.
func BenchmarkCollectorRecordParallel(b *testing.B) {
	c := NewCollector(Options{})
	var rank atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		r := int(rank.Add(1)) % 64
		e := trace.Event{Rank: r, Region: "loop 1", Activity: "computation", Start: 1, End: 2}
		for pb.Next() {
			c.Record(e)
		}
	})
}

// BenchmarkCollectorRecordWindowed includes the windowing fold cost —
// paid by the recorder whenever the Record ring fills and by the snapshot
// every 1024 events — amortized per recorded event.
func BenchmarkCollectorRecordWindowed(b *testing.B) {
	c := NewCollector(Options{Window: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := float64(i%100) / 10
		c.Record(trace.Event{Rank: i % 16, Region: "loop 1", Activity: "computation", Start: s, End: s + 0.05})
		if i%1024 == 1023 {
			c.Snapshot()
		}
	}
}

// BenchmarkFoldWindowed measures the windowed fold per event, on two
// shapes:
//   - ingest: the bench harness's ingest stream (64 ranks, 8 regions x 4
//     activities, every event in one temporal window) published into a
//     producer ring in 4096-event batches and folded after each: the work
//     of the ingest server's background folder, in ns/event.
//   - record_cfd: one cfd run at the harness's observed_app shape (8 ranks,
//     128x128 grid, 5 iterations), recorded event by event in its log's
//     order into a fresh collector with 32 windows over the run's span,
//     then one Snapshot; allocs/op are per run.
func BenchmarkFoldWindowed(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		const ranks = 64
		regions := []string{"region 0", "region 1", "region 2", "region 3", "region 4", "region 5", "region 6", "region 7"}
		activities := []string{"activity 0", "activity 1", "activity 2", "activity 3"}
		batch := make([]trace.Event, 0, 4096)
		for it := 0; len(batch) < cap(batch); it++ {
			for rank := 0; rank < ranks; rank++ {
				t := float64(it)
				for _, r := range regions {
					for _, a := range activities {
						batch = append(batch, trace.Event{Rank: rank, Region: r, Activity: a, Start: t, End: t + 0.01})
						t += 0.01
					}
				}
			}
		}
		c := NewCollector(Options{Window: 1 << 20, Regions: regions, Activities: activities})
		p := c.Producer(ProducerOptions{})
		p.RecordBatch(batch) // every vector of the window exists before timing
		c.Fold()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; {
			k := min(len(batch), b.N-n)
			p.RecordBatch(batch[:k])
			c.Fold()
			n += k
		}
	})
	b.Run("record_cfd", func(b *testing.B) {
		cfg := cfd.Defaults()
		cfg.Procs = 8
		cfg.GridX, cfg.GridY = 128, 128
		cfg.Iterations = 5
		res, err := cfd.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events := res.Log.Events()
		window := res.Log.Span() / 32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := NewCollector(Options{Window: window})
			for _, e := range events {
				c.Record(e)
			}
			if c.Snapshot().Events != uint64(len(events)) {
				b.Fatal("lost events")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	})
}

// BenchmarkRecordBatch measures the zero-alloc batched publish path: one
// SPSC producer streaming 512-event batches. Each iteration is one event,
// so ns/op compares directly against BenchmarkCollectorRecord — the
// acceptance floor is a >= 5x improvement (held by
// TestRecordTimingFloors) with 0 allocs/op (held by
// TestProducerRecordBatchAllocs). The periodic ring drain runs off the
// timer: like the Record baseline, this isolates the producer-side
// publish cost.
func BenchmarkRecordBatch(b *testing.B) {
	c := NewCollector(Options{})
	p := c.Producer(ProducerOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	publishBatches(b, c, p, b.N)
	b.StopTimer()
	c.Fold()
	if c.Events() != uint64(b.N) {
		b.Fatal("lost events")
	}
}

// TestRecordTimingFloors holds the two wall-clock floors of the intake
// benchmarks: Record costs under 1 µs per event, and the batched
// producer publish is at least 5x cheaper per event than Record. Both
// loops run over a fixed event count in interleaved rounds on one warm
// collector each, and the fastest round of each is compared, so a round
// that shared the cores with other work does not decide the verdict.
// Wall-clock timing: skipped under -short and under the race detector.
func TestRecordTimingFloors(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock floor: skipped under -short and -race")
	}
	const (
		events = 1 << 20
		rounds = 10
	)
	rc := NewCollector(Options{})
	bc := NewCollector(Options{})
	bp := bc.Producer(ProducerOptions{})
	var record, batch time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		recordEvents(rc, events)
		if d := time.Since(start); r == 0 || d < record {
			record = d
		}

		var sw stopwatch
		sw.StartTimer()
		publishBatches(&sw, bc, bp, events)
		sw.StopTimer()
		bc.Fold()
		if r == 0 || sw.elapsed < batch {
			batch = sw.elapsed
		}
	}
	perRecord := float64(record.Nanoseconds()) / events
	speedup := float64(record) / float64(batch)
	t.Logf("Record %.1f ns/event, RecordBatch %.2f ns/event: %.2fx",
		perRecord, float64(batch.Nanoseconds())/events, speedup)
	if perRecord >= 1000 {
		t.Errorf("Record costs %.0f ns per event, budget 1000", perRecord)
	}
	if speedup < 5 {
		t.Errorf("RecordBatch is %.2fx cheaper per event than Record, floor 5x", speedup)
	}
}

// minWireEventsPerSec is the floor on BenchmarkIngestWire's sustained
// rate.
const minWireEventsPerSec = 10e6

// BenchmarkIngestWire measures the full remote ingest pipeline over a
// Unix domain socket: client-side frame encoding, the socket, server-side
// decoding into a producer ring and the background fold, pipelined across
// goroutines. Each iteration is one event; events/s reports the sustained
// rate. The collector is unwindowed, so the fold is the cube's alone
// (imbamon windows by default; BenchmarkFoldWindowed/ingest times the
// windowed fold). The floor, minWireEventsPerSec, is absolute: the pipeline's three
// stages run on separate goroutines and need at least two cores to
// themselves, so no ratio against a co-running baseline would hold it.
// It applies only to measurement runs (b.N >= 2^20); a 1x smoke times
// one event.
func BenchmarkIngestWire(b *testing.B) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{})
	sock := filepath.Join(b.TempDir(), "bench.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		b.Fatal(err)
	}
	cl, err := DialIngest("unix:"+sock, ClientOptions{Batch: 4096, FlushInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]trace.Event, 4096)
	for i := range batch {
		s := float64(i) * 0.001
		batch[i] = trace.Event{Rank: i % 16, Region: "loop 1", Activity: "computation", Start: s, End: s + 0.001}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := len(batch)
		if rem := b.N - n; k > rem {
			k = rem
		}
		cl.RecordBatch(batch[:k])
		n += k
	}
	if err := cl.Flush(); err != nil {
		b.Fatal(err)
	}
	// The pipeline is only done when the collector has folded every event.
	// Events counts the events published into the connection's ring; Fold
	// then waits out the background folder and folds what is left.
	for c.Events() < uint64(b.N) {
		runtime.Gosched()
	}
	c.Fold()
	b.StopTimer()
	if err := cl.Close(); err != nil {
		b.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	eps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(eps, "events/s")
	if b.N >= 1<<20 && eps < minWireEventsPerSec {
		b.Fatalf("wire ingest sustained %.3gM events/s, floor %.3gM", eps/1e6, minWireEventsPerSec/1e6)
	}
}

// BenchmarkSelfInterference measures how much attaching the observer
// slows the observed program: one cfd run per iteration with (a) no sink,
// (b) an in-process collector, (c) the wire client streaming to a local
// ingest daemon. The ratios attached/detached and wire/detached are the
// cost of observation, in units of the uninstrumented run; the
// benchmark harness's observed_app workload measures the same cost with
// its spread (EXPERIMENTS.md, "Ingest throughput & self-interference").
func BenchmarkSelfInterference(b *testing.B) {
	cfg := cfd.Defaults()
	cfg.Procs = 8
	cfg.GridX, cfg.GridY = 128, 128
	cfg.Iterations = 5
	runWith := func(b *testing.B, sink trace.Sink) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Sink = sink
			if _, err := cfd.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("detached", func(b *testing.B) { runWith(b, nil) })
	b.Run("attached", func(b *testing.B) {
		col := NewCollector(Options{})
		runWith(b, col)
	})
	b.Run("wire", func(b *testing.B) {
		col := NewCollector(Options{})
		srv := NewIngestServer(col, IngestOptions{})
		sock := filepath.Join(b.TempDir(), "interf.sock")
		if _, err := srv.Listen("unix:" + sock); err != nil {
			b.Fatal(err)
		}
		cl, err := DialIngest("unix:"+sock, ClientOptions{Batch: 4096, FlushInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		runWith(b, cl)
		b.StopTimer()
		if err := cl.Close(); err != nil {
			b.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSnapshot measures a full fold + publish on a paper-shaped cube
// (7 regions x 4 activities x 16 processors) with a fresh batch of
// events per iteration.
func BenchmarkSnapshot(b *testing.B) {
	regions := make([]string, 7)
	for i := range regions {
		regions[i] = "loop " + string(rune('1'+i))
	}
	activities := []string{"computation", "point-to-point", "collective", "synchronization"}
	c := NewCollector(Options{Regions: regions, Activities: activities})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 128; k++ {
			c.Record(trace.Event{
				Rank:     k % 16,
				Region:   regions[k%len(regions)],
				Activity: activities[k%len(activities)],
				Start:    float64(k),
				End:      float64(k) + 0.25,
			})
		}
		b.StartTimer()
		c.Snapshot()
	}
}

// BenchmarkSnapshotRebuild measures what one new snapshot generation
// costs on a full-ring collector: 128 ranks, two cells
// (solve/computation 0.7, exchange/communication 0.3 of each rank's
// work), one-second windows, 6,144 preloaded windows (the full ring plus
// half a coarse tail), and a straggling rank that alternates between two
// ranks every 64 windows, so the trajectory segments into about 64
// phases. One op appends one window, then builds the snapshot and its
// diagnosis — the work a scrape after each write pays.
func BenchmarkSnapshotRebuild(b *testing.B) {
	const (
		ranks     = 128
		preload   = 6144
		phaseLen  = 64
		straggle  = 3.0
		workScale = 0.25
	)
	var work [2][]float64
	for k, straggler := range []int{17, 90} {
		work[k] = make([]float64, ranks)
		for p := range work[k] {
			work[k][p] = workScale * (1 + 0.02*float64((p*7)%11-5))
		}
		work[k][straggler] *= straggle
	}
	c := NewCollector(Options{
		Window:     1,
		Regions:    []string{"solve", "exchange"},
		Activities: []string{"computation", "communication"},
	})
	batch := make([]trace.Event, 0, 2*ranks)
	appendWindow := func(w int) {
		batch = batch[:0]
		t0 := float64(w)
		for p, wk := range work[(w/phaseLen)%2] {
			mid := t0 + 0.7*wk
			batch = append(batch,
				trace.Event{Rank: p, Region: "solve", Activity: "computation", Start: t0, End: mid},
				trace.Event{Rank: p, Region: "exchange", Activity: "communication", Start: mid, End: t0 + wk})
		}
		c.RecordBatch(batch)
	}
	for w := 0; w < preload; w++ {
		appendWindow(w)
		if w%512 == 511 {
			c.Fold()
		}
	}
	c.Snapshot().Diagnosis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendWindow(preload + i)
		if c.Snapshot().Diagnosis() == nil {
			b.Fatal("no diagnosis")
		}
	}
}
