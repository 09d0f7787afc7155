package tracefmt

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// benchBatch is the event count of one LIWP batch in the wire benchmarks,
// the batch size the ingest path decodes into.
const benchBatch = 4096

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// loopReader serves one frame over and over: an endless stream.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}

// BenchmarkWireEncode measures the steady-state LIWP encoder: every name
// already interned, 4,096-event batches. One op is one event; the byte
// rate is the wire bytes per event.
func BenchmarkWireEncode(b *testing.B) {
	batch := randomEvents(rand.New(rand.NewSource(1)), benchBatch)
	var out byteCounter
	enc := NewWireEncoder(&out)
	if err := enc.EncodeBatch(batch); err != nil { // interns the names
		b.Fatal(err)
	}
	warm := out
	if err := enc.EncodeBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out-warm) / benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		if err := enc.EncodeBatch(batch[:min(benchBatch, b.N-n)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures the steady-state LIWP decoder over an
// endless stream of one 4,096-event frame. The frame is the third of
// three identical batches, so it was encoded against the end of an
// identical batch: replaying it after itself is a valid stream whose
// names are all interned and whose deltas decode exactly. One op is one
// event (rounded up to whole frames); the byte rate is the wire bytes
// per event.
func BenchmarkWireDecode(b *testing.B) {
	batch := randomEvents(rand.New(rand.NewSource(1)), benchBatch)
	var buf bytes.Buffer
	enc := NewWireEncoder(&buf)
	mark := 0
	for i := 0; i < 3; i++ {
		mark = buf.Len()
		if err := enc.EncodeBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	stream := buf.Bytes()
	dec := NewWireDecoder(io.MultiReader(bytes.NewReader(stream[:mark]), &loopReader{frame: stream[mark:]}))
	dst := make([]trace.Event, 0, benchBatch)
	for i := 0; i < 3; i++ {
		var err error
		if dst, err = dec.DecodeBatch(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	if dst[len(dst)-1] != batch[len(batch)-1] {
		b.Fatalf("replayed frame decoded %+v, want %+v", dst[len(dst)-1], batch[len(batch)-1])
	}
	b.SetBytes(int64(len(stream)-mark) / benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		var err error
		if dst, err = dec.DecodeBatch(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStates returns two consecutive generations of a 128-rank endpoint
// with per-activity and per-region window vectors: a 4x3 cube and a
// bounded window series, then the same after 1,000 more events — the
// small patch a federator fetches at steady state.
func benchStates(tb testing.TB) (prev, cur *DeltaState) {
	const procs = 128
	regions := []string{"init", "loop 1", "loop 2", "halo-exchange"}
	activities := []string{"computation", "point-to-point", "collective"}
	cube, err := trace.NewCube(regions, activities, procs)
	if err != nil {
		tb.Fatal(err)
	}
	fold := temporal.NewFold(temporal.Options{
		Window:          1,
		TrackActivities: true,
		PerActivity:     true,
		PerRegion:       true,
		WindowCap:       64,
	})
	rng := rand.New(rand.NewSource(1))
	clock := make([]float64, procs)
	record := func(n int) {
		for ; n > 0; n-- {
			p, i, j := rng.Intn(procs), rng.Intn(len(regions)), rng.Intn(len(activities))
			d := rng.Float64() * 0.5
			fold.Add(trace.Event{Rank: p, Region: regions[i], Activity: activities[j], Start: clock[p], End: clock[p] + d})
			if err := cube.Add(i, j, p, d); err != nil {
				tb.Fatal(err)
			}
			clock[p] += d
		}
	}
	record(40000)
	prev = &DeltaState{Boot: 1, Gen: 1, Cube: cube.Clone(), Series: fold.Series()}
	record(1000)
	cur = &DeltaState{Boot: 1, Gen: 2, Cube: cube, Series: fold.Series()}
	return prev, cur
}

// BenchmarkDeltaEncode measures LIFP encoding of a full document and of
// a delta document between two 128-rank generations. One op is one
// document.
func BenchmarkDeltaEncode(b *testing.B) {
	prev, cur := benchStates(b)
	for _, bc := range []struct {
		name   string
		encode func() ([]byte, error)
	}{
		{"full", func() ([]byte, error) { return EncodeSnapshotFull(cur) }},
		{"delta", func() ([]byte, error) { return EncodeSnapshotDelta(prev, cur) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			doc, err := bc.encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := bc.encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaDecode measures LIFP decoding of the documents
// BenchmarkDeltaEncode produces; the delta applies to the previous
// generation. One op is one document.
func BenchmarkDeltaDecode(b *testing.B) {
	prev, cur := benchStates(b)
	full, err := EncodeSnapshotFull(cur)
	if err != nil {
		b.Fatal(err)
	}
	delta, err := EncodeSnapshotDelta(prev, cur)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		doc  []byte
		base *DeltaState
	}{
		{"full", full, nil},
		{"delta", delta, prev},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.doc)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := DecodeSnapshot(bc.doc, bc.base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventsFile measures an event file round trip: SaveEvents, then
// OpenEvents, of a 2^20-event log from 16 ranks over 7 regions and 4
// activities, each rank's events back to back on its own timeline. One op
// is one whole file; bytes/event is the file size per event.
func BenchmarkEventsFile(b *testing.B) {
	const events, ranks = 1 << 20, 16
	regions := []string{"init", "loop 1", "loop 2", "loop 3", "loop 4", "loop 5", "halo-exchange"}
	activities := []string{"computation", "point-to-point", "collective", "synchronization"}
	rng := rand.New(rand.NewSource(1))
	clock := make([]float64, ranks)
	var log trace.Log
	for i := 0; i < events; i++ {
		r := rng.Intn(ranks)
		d := rng.Float64() * 0.01
		e := trace.Event{
			Rank:     r,
			Region:   regions[rng.Intn(len(regions))],
			Activity: activities[rng.Intn(len(activities))],
			Start:    clock[r],
			End:      clock[r] + d,
		}
		if err := log.Append(e); err != nil {
			b.Fatal(err)
		}
		clock[r] = e.End
	}
	path := filepath.Join(b.TempDir(), "events.liwp")
	if err := SaveEvents(path, &log); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		op   func() error
	}{
		{"save", func() error { return SaveEvents(path, &log) }},
		{"open", func() error {
			got, err := OpenEvents(path)
			if err == nil && got.Len() != events {
				err = fmt.Errorf("opened %d events, want %d", got.Len(), events)
			}
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := bc.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Size())/events, "bytes/event")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
