package monitor

import (
	"math"
	"sync"
	"testing"

	"loadimb/internal/trace"
)

// FuzzRecordSnapshot drives the collector with a fuzzer-chosen event
// stream, recorded from two goroutines while a third interleaves
// snapshots. Run under -race it guards the lock-free snapshot path: the
// invariant is that after a final quiescent Snapshot the cube accounts
// for every valid event exactly once, whatever the interleaving. Every
// snapshot's cached trajectories, dimension names, phase summaries and
// memoized diagnosis must also equal their stateless recomputation
// (checkSnapshotOracles), and the LIFP delta from every earlier snapshot
// taken must reproduce it bit for bit (checkDeltas).
//
// The high bits of the rank byte select a boundary shape, so the fuzzer
// exercises the window-clipping edge cases deliberately: events snapped
// to end exactly on a window boundary, events stretched to span three or
// more windows, and zero-duration instants.
func FuzzRecordSnapshot(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 255, 0, 128, 7})
	f.Add([]byte("snapshots interleaved with records"))
	// Seed each boundary shape: 0x1_ snaps the end onto a boundary,
	// 0x2_ spans >=3 windows, 0x3_ is a zero-duration instant.
	f.Add([]byte{0x10, 1, 9, 0x21, 2, 5, 0x32, 3, 0, 0x13, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const window = 8.0
		// Decode the fuzz input into events: 3 bytes each -> rank+shape,
		// cell, duration. A zero duration byte doubles as a snapshot
		// point marker.
		type step struct {
			e    trace.Event
			snap bool
		}
		var steps []step
		var wantTotal float64
		var wantEvents uint64
		regions := []string{"ra", "rb", "rc"}
		activities := []string{"x", "y"}
		for i := 0; i+2 < len(data); i += 3 {
			rank := int(data[i] % 16)
			shape := int(data[i]>>4) % 4
			cell := int(data[i+1])
			d := float64(data[i+2]) / 16
			start := float64(i)
			end := start + d
			switch shape {
			case 1: // end exactly on a window boundary
				end = math.Ceil(end/window) * window
			case 2: // stretch to span at least three windows
				end = start + 2*window + d
			case 3: // zero-duration instant
				end = start
			}
			s := step{
				e: trace.Event{
					Rank:     rank,
					Region:   regions[cell%len(regions)],
					Activity: activities[(cell/3)%len(activities)],
					Start:    start,
					End:      end,
				},
				snap: data[i+2] == 0,
			}
			steps = append(steps, s)
			wantTotal += end - start
			wantEvents++
		}
		c := NewCollector(Options{Window: window})
		var wg sync.WaitGroup
		half := len(steps) / 2
		for _, part := range [][]step{steps[:half], steps[half:]} {
			wg.Add(1)
			go func(part []step) {
				defer wg.Done()
				for _, s := range part {
					c.Record(s.e)
				}
			}(part)
		}
		snapDone := make(chan struct{})
		var kept []*Snapshot
		go func() {
			defer close(snapDone)
			for _, s := range steps {
				if s.snap {
					snap := c.Snapshot()
					if snap.Dropped != 0 {
						t.Error("valid events were dropped")
					}
					checkSnapshotOracles(t, snap)
					checkDeltas(t, kept, snap)
					kept = append(kept, snap)
				}
			}
		}()
		wg.Wait()
		<-snapDone
		snap := c.Snapshot()
		checkSnapshotOracles(t, snap)
		checkDeltas(t, kept, snap)
		if snap.Events != wantEvents {
			t.Fatalf("events = %d, want %d", snap.Events, wantEvents)
		}
		if wantEvents == 0 {
			if snap.Cube != nil {
				t.Fatal("cube from zero events")
			}
			return
		}
		got := snap.Cube.RegionsTotal() * float64(snap.Cube.NumProcs())
		if math.Abs(got-wantTotal) > 1e-6*(1+wantTotal) {
			t.Fatalf("processor-seconds = %g, want %g", got, wantTotal)
		}
		// Re-snapshotting without new events must be a fixed point.
		again := c.Snapshot()
		if !again.Cube.EqualWithin(snap.Cube, 0) {
			t.Fatal("idempotent snapshot changed the cube")
		}
		// Windowed busy time partitions the instrumented total, and a
		// window's dispersion is defined exactly when it saw busy time.
		var windowed float64
		for _, w := range again.Windows {
			windowed += w.Busy
			if (w.ID != nil) != (w.Busy > 0) {
				t.Fatalf("window %d: busy %g but ID defined = %v", w.Index, w.Busy, w.ID != nil)
			}
		}
		if math.Abs(windowed-wantTotal) > 1e-6*(1+wantTotal) {
			t.Fatalf("windowed busy %g does not partition total %g", windowed, wantTotal)
		}
	})
}
