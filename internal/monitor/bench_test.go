package monitor

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"loadimb/internal/cfd"
	"loadimb/internal/trace"
)

// BenchmarkCollectorRecord measures the instrumentation hot path: one
// Record call on an otherwise idle collector. The observability budget is
// < 1 us/event (see EXPERIMENTS.md "Monitoring overhead"). Nothing else
// ever drains the Record ring, so the recorder folds it itself every 256
// events and the per-event cost includes that fold, amortized;
// BenchmarkCollectorRecordWindowed adds periodic snapshots and the
// windowing fold (the deployment shape).
func BenchmarkCollectorRecord(b *testing.B) {
	c := NewCollector(Options{})
	e := trace.Event{Rank: 3, Region: "loop 1", Activity: "computation", Start: 1, End: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Record(e)
	}
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

// BenchmarkRecordBatch measures the zero-alloc batched publish path: one
// SPSC producer streaming 512-event batches. Each iteration is one event,
// so ns/op compares directly against BenchmarkCollectorRecord — the
// acceptance floor is a >= 5x improvement with 0 allocs/op (the alloc
// guard proper is TestProducerRecordBatchAllocs). The periodic ring drain
// runs off the timer: like the Record baseline, this isolates the
// producer-side publish cost.
func BenchmarkRecordBatch(b *testing.B) {
	c := NewCollector(Options{})
	p := c.Producer(ProducerOptions{})
	batch := make([]trace.Event, 512)
	for i := range batch {
		batch[i] = trace.Event{Rank: 3, Region: "loop 1", Activity: "computation", Start: 1, End: 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := len(batch)
		if rem := b.N - n; k > rem {
			k = rem
		}
		p.RecordBatch(batch[:k])
		n += k
		if p.Pending() > 1<<15 {
			b.StopTimer()
			c.Fold()
			b.StartTimer()
		}
	}
	b.StopTimer()
	c.Fold()
	if c.Events() != uint64(b.N) {
		b.Fatal("lost events")
	}
}

// BenchmarkIngestWire measures the full remote ingest pipeline over a
// Unix domain socket: client-side frame encoding, the socket, server-side
// decoding into a producer ring and the background fold, pipelined across
// goroutines. Each iteration is one event, so the sustained wire rate is
// 1e9/ns_per_op events/sec; the acceptance floor is 10M events/sec (see
// BENCH_ingest.json).
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
	for c.Events() < uint64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if err := cl.Close(); err != nil {
		b.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSelfInterference measures how much attaching the observer
// slows the observed program: one cfd run per iteration with (a) no sink,
// (b) an in-process collector, (c) the wire client streaming to a local
// ingest daemon. The interference ratio attached/detached (and
// wire/detached) is the self-interference figure recorded in
// BENCH_ingest.json — the cost of observation, in units of the
// uninstrumented run.
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
