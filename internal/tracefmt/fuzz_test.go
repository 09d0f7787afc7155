package tracefmt

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// wireStream encodes events verbatim as one LIWP stream.
func wireStream(tb testing.TB, events []trace.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := NewWireEncoder(&buf).EncodeBatch(events); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadEvents hardens the event file reader: arbitrary bytes must
// either load as a log of valid events with finite times or fail with a
// clean error — never a panic.
func FuzzReadEvents(f *testing.F) {
	valid := wireStream(f, []trace.Event{
		{Rank: 0, Region: "loop 1", Activity: "computation", Start: 0, End: 1},
		{Rank: 1, Region: "loop 1", Activity: "collective", Start: 0.5, End: 1.25},
	})
	f.Add(valid)
	f.Add(wireStream(f, []trace.Event{{Rank: -1, Region: "r", Activity: "a", Start: 0, End: 1}}))
	f.Add(wireStream(f, []trace.Event{{Rank: 0, Region: "r", Activity: "a", Start: math.NaN(), End: 1}}))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		log.Each(func(e trace.Event) {
			if err := e.Validate(); err != nil {
				t.Fatalf("reader admitted invalid event: %v", err)
			}
			if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || math.IsNaN(e.End) || math.IsInf(e.End, 0) {
				t.Fatalf("reader admitted non-finite times [%g, %g)", e.Start, e.End)
			}
		})
	})
}

// FuzzIngestDecode hardens the event wire-protocol decoder against
// arbitrary bytes: it must never panic, never allocate unbounded state,
// and any stream it fully accepts must re-encode and re-decode to the
// identical event sequence (valid round trips are the identity).
func FuzzIngestDecode(f *testing.F) {
	f.Add(wireStream(f, []trace.Event{{Rank: 0, Region: "loop 1", Activity: "computation", Start: 0, End: 1}}))
	f.Add(wireStream(f, []trace.Event{
		{Rank: 3, Region: "a", Activity: "x", Start: 1.5, End: 2.25},
		{Rank: 3, Region: "a", Activity: "x", Start: 2.25, End: 2.5},
		{Rank: 4, Region: "b", Activity: "y", Start: 0, End: 0.125},
	}))
	f.Add([]byte(WireMagic))
	f.Add([]byte("LIWP\x01\x01\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewWireDecoder(bytes.NewReader(data))
		var events []trace.Event
		clean := false
		for {
			var err error
			events, err = dec.DecodeBatch(events)
			if err == io.EOF {
				clean = true
				break
			}
			if err != nil {
				break
			}
		}
		if !clean || len(events) == 0 {
			return
		}
		// The stream decoded cleanly: re-encoding the events and decoding
		// again must reproduce them bit for bit.
		var buf bytes.Buffer
		if err := NewWireEncoder(&buf).EncodeBatch(events); err != nil {
			// Re-encoding may legitimately refuse pathological inputs the
			// decoder tolerated (e.g. table overflow across many frames
			// versus one); it must still be a clean error.
			return
		}
		redec := NewWireDecoder(&buf)
		var got []trace.Event
		for {
			var err error
			got, err = redec.DecodeBatch(got)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-decoding re-encoded stream: %v", err)
			}
		}
		if len(got) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(got))
		}
		for i := range events {
			if got[i].Rank != events[i].Rank || got[i].Region != events[i].Region ||
				got[i].Activity != events[i].Activity ||
				math.Float64bits(got[i].Start) != math.Float64bits(events[i].Start) ||
				math.Float64bits(got[i].End) != math.Float64bits(events[i].End) {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, events[i], got[i])
			}
		}
	})
}

// FuzzDeltaDecode hardens the LIFP snapshot delta decoder: arbitrary
// bytes must never panic, and any document that decodes cleanly must
// survive a full re-encode/decode cycle as the identity.
func FuzzDeltaDecode(f *testing.F) {
	cube, err := trace.NewCube([]string{"solve", "halo"}, []string{"comp", "comm"}, 3)
	if err != nil {
		f.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := cube.Set(0, 0, p, 1.5+float64(p)); err != nil {
			f.Fatal(err)
		}
	}
	fold := NewSeedFold()
	state := &DeltaState{Boot: 0xbeef, Gen: 4, Cube: cube, Series: fold}
	full, err := EncodeSnapshotFull(state)
	if err != nil {
		f.Fatal(err)
	}
	next := &DeltaState{Boot: 0xbeef, Gen: 5, Cube: cube.Clone(), Series: fold}
	if err := next.Cube.Set(1, 1, 2, 7.25); err != nil {
		f.Fatal(err)
	}
	delta, err := EncodeSnapshotDelta(state, next)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(delta)
	f.Add([]byte(DeltaMagic))
	f.Add([]byte("LIFP\x01\x01\x00\x00"))
	f.Add([]byte("LIFP\x01\x02\x00\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range []*DeltaState{nil, state} {
			got, err := DecodeSnapshot(data, base)
			if err != nil {
				continue
			}
			if got.Cube != nil {
				if got.Cube.ProgramTime() < 0 || got.Cube.RegionsTotal() < 0 {
					t.Fatalf("decoded invalid cube: program %g total %g",
						got.Cube.ProgramTime(), got.Cube.RegionsTotal())
				}
			}
			// Anything accepted must re-encode as a full document and
			// decode back without error.
			re, err := EncodeSnapshotFull(got)
			if err != nil {
				t.Fatalf("re-encoding accepted state: %v", err)
			}
			if _, err := DecodeSnapshot(re, nil); err != nil {
				t.Fatalf("re-decoding re-encoded state: %v", err)
			}
		}
	})
}

// NewSeedFold builds a tiny window series for fuzz seeds.
func NewSeedFold() *temporal.Series {
	fold := temporal.NewFold(temporal.Options{Window: 1.0, Procs: 3, PerActivity: true})
	fold.Add(trace.Event{Rank: 0, Region: "solve", Activity: "comp", Start: 0, End: 2.5})
	fold.Add(trace.Event{Rank: 2, Region: "halo", Activity: "comm", Start: 1, End: 1.75})
	return fold.Series()
}

// FuzzReadCubeCSV hardens the CSV decoder.
func FuzzReadCubeCSV(f *testing.F) {
	f.Add("region,activity,proc,seconds\nr,a,0,1\n")
	f.Add("region,activity,proc,seconds\n__program__,,0,9\nr,a,0,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		cube, err := ReadCubeCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if cube.RegionsTotal() < 0 || cube.ProgramTime() < cube.RegionsTotal()-1e-9 {
			t.Fatalf("decoded inconsistent cube: total %g, program %g",
				cube.RegionsTotal(), cube.ProgramTime())
		}
	})
}
