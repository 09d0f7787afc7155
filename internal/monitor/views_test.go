package monitor

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"loadimb/internal/core"
	"loadimb/internal/trace"
)

// feedCollector records a deterministic event mix across ranks.
func feedCollector(c *Collector, ranks, reps int) {
	for r := 0; r < reps; r++ {
		for p := 0; p < ranks; p++ {
			start := float64(r)
			c.Record(trace.Event{
				Rank: p, Region: fmt.Sprintf("loop%d", r%3), Activity: "comp",
				Start: start, End: start + 0.5 + float64(p)*0.01,
			})
			c.Record(trace.Event{
				Rank: p, Region: fmt.Sprintf("loop%d", r%3), Activity: "comm",
				Start: start + 0.5, End: start + 0.6,
			})
		}
	}
}

// TestSnapshotViewsMatchAnalyze checks the memoized snapshot views are the
// same objects on every call and agree with a fresh core analysis of the
// same cube.
func TestSnapshotViewsMatchAnalyze(t *testing.T) {
	c := NewCollector(Options{})
	feedCollector(c, 8, 6)
	snap := c.Snapshot()
	views, err := snap.Views()
	if err != nil {
		t.Fatalf("Views: %v", err)
	}
	if views == nil {
		t.Fatal("Views returned nil for a populated snapshot")
	}
	again, err := snap.Views()
	if err != nil {
		t.Fatalf("Views (second call): %v", err)
	}
	if again != views {
		t.Fatal("second Views call computed a new object instead of the memo")
	}

	cells, err := core.Dispersions(snap.Cube, core.Options{})
	if err != nil {
		t.Fatalf("Dispersions: %v", err)
	}
	for i := range cells {
		for j := range cells[i] {
			if views.Cells[i][j] != cells[i][j] {
				t.Errorf("cell (%d, %d): views %+v, fresh %+v", i, j, views.Cells[i][j], cells[i][j])
			}
		}
	}
	procs, err := core.NewProcessorView(snap.Cube, core.Options{})
	if err != nil {
		t.Fatalf("NewProcessorView: %v", err)
	}
	if views.Processors.LongestImbalanced != procs.LongestImbalanced ||
		views.Processors.MostFrequentlyImbalanced != procs.MostFrequentlyImbalanced {
		t.Errorf("processor view disagrees: views %+v, fresh %+v",
			views.Processors, procs)
	}
}

// TestSnapshotViewsEmpty checks a cube-less snapshot serves nil views
// without error.
func TestSnapshotViewsEmpty(t *testing.T) {
	c := NewCollector(Options{})
	snap := c.Snapshot()
	views, err := snap.Views()
	if err != nil {
		t.Fatalf("Views on empty snapshot: %v", err)
	}
	if views != nil {
		t.Fatalf("Views on empty snapshot = %+v, want nil", views)
	}
}

// TestSnapshotReuseWhenUnchanged checks that snapshotting an unchanged
// collector re-serves the same immutable snapshot (same generation, same
// memoized views) and that new events advance the generation.
func TestSnapshotReuseWhenUnchanged(t *testing.T) {
	c := NewCollector(Options{})
	feedCollector(c, 4, 3)
	first := c.Snapshot()
	second := c.Snapshot()
	if first != second {
		t.Fatal("unchanged collector built a new snapshot")
	}
	if first.Gen != second.Gen {
		t.Fatalf("generation changed without new data: %d -> %d", first.Gen, second.Gen)
	}

	c.Record(trace.Event{Rank: 0, Region: "loop0", Activity: "comp", Start: 100, End: 101})
	third := c.Snapshot()
	if third == second {
		t.Fatal("collector re-served a stale snapshot after new events")
	}
	if third.Gen <= second.Gen {
		t.Fatalf("generation did not advance: %d -> %d", second.Gen, third.Gen)
	}
	if third.Events != second.Events+1 {
		t.Fatalf("Events = %d, want %d", third.Events, second.Events+1)
	}

	// A dropped (malformed) event also changes the published counters, so
	// it must produce a fresh snapshot even though the cube is unchanged.
	c.Record(trace.Event{Rank: -1, Region: "loop0", Activity: "comp", Start: 0, End: 1})
	fourth := c.Snapshot()
	if fourth == third {
		t.Fatal("collector re-served a snapshot with a stale drop counter")
	}
	if fourth.Dropped != third.Dropped+1 {
		t.Fatalf("Dropped = %d, want %d", fourth.Dropped, third.Dropped+1)
	}
}

// TestScrapeReuseServesIdenticalMetrics checks repeated scrapes of an
// unchanged collector render byte-identical metrics through the memoized
// views.
func TestScrapeReuseServesIdenticalMetrics(t *testing.T) {
	c := NewCollector(Options{})
	feedCollector(c, 6, 5)
	var first, second bytes.Buffer
	if err := WriteMetrics(&first, c.Snapshot()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if err := WriteMetrics(&second, c.Snapshot()); err != nil {
		t.Fatalf("WriteMetrics (second scrape): %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("repeated scrapes of an unchanged collector differ")
	}
}

// TestConcurrentAnalyzeAndRecord hammers a collector with concurrent
// recorders, snapshotters, full core analyses and metric scrapes; under
// -race this verifies the whole live-analysis path — the Record ring,
// snapshot publication, lazy marginal fill, memoized views and the
// parallel region pool — is data-race free.
func TestConcurrentAnalyzeAndRecord(t *testing.T) {
	c := NewCollector(Options{Window: 1})
	feedCollector(c, 8, 2) // make sure the first snapshot has a cube
	c.Snapshot()

	var wg sync.WaitGroup
	const (
		recorders = 4
		analysts  = 3
		rounds    = 40
	)
	errs := make(chan error, analysts)
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				start := float64(r)
				c.Record(trace.Event{
					Rank: g, Region: "loop0", Activity: "comp",
					Start: start, End: start + 1,
				})
			}
		}(g)
	}
	for g := 0; g < analysts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				snap := c.Snapshot()
				if snap.Cube == nil {
					errs <- fmt.Errorf("snapshot without cube after seeding")
					return
				}
				if _, err := core.Analyze(snap.Cube, core.AnalyzeOptions{}); err != nil {
					errs <- fmt.Errorf("Analyze: %w", err)
					return
				}
				if err := WriteMetrics(io.Discard, snap); err != nil {
					errs <- fmt.Errorf("WriteMetrics: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
