package tracefmt

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// boundNames returns n distinct names of exactly size bytes each.
func boundNames(n, size int) []string {
	out := make([]string, n)
	for i := range out {
		id := fmt.Sprintf("%x.", i)
		out[i] = id + strings.Repeat("n", size-len(id))
	}
	return out
}

// TestNameTableBounds: the encoder of each protocol refuses exactly the
// name tables its decoder rejects — one name too long, one entry too
// many, one byte past the table budget — so a producer learns about an
// overflow from its own encoder (ErrWire) instead of having the receiver
// drop the connection as corrupt. Just under each bound the names round
// trip. On LIWP the frames written before the refusal still decode
// cleanly; a LIFP document is all or nothing.
func TestNameTableBounds(t *testing.T) {
	cases := []struct {
		bound       string
		under, over []string
	}{
		{"name length", boundNames(1, maxNameLen), boundNames(1, maxNameLen+1)},
		{"entry count", boundNames(MaxWireStrings, 8), boundNames(MaxWireStrings+1, 8)},
		{"table bytes", boundNames(maxWireTableBytes/maxNameLen, maxNameLen), boundNames(maxWireTableBytes/maxNameLen+1, maxNameLen)},
	}
	for _, tc := range cases {
		t.Run("LIWP/"+tc.bound, func(t *testing.T) {
			for _, over := range []bool{false, true} {
				names := tc.under
				if over {
					names = tc.over
				}
				events := make([]trace.Event, len(names))
				for i, name := range names {
					events[i] = trace.Event{Rank: i % 3, Region: name, Activity: "a", Start: float64(i), End: float64(i) + 1}
				}
				var buf bytes.Buffer
				err := NewWireEncoder(&buf).EncodeBatch(events)
				if over != (err != nil) || (over && !errors.Is(err, ErrWire)) {
					t.Fatalf("over=%v: encoder returned %v", over, err)
				}
				got := decodeAll(t, &buf)
				if !over && len(got) != len(events) {
					t.Fatalf("decoded %d events, want %d", len(got), len(events))
				}
				if over && len(got) >= len(events) {
					t.Fatalf("decoded %d events past the bound", len(got))
				}
				for i := range got {
					if got[i] != events[i] {
						t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
					}
				}
			}
		})
		t.Run("LIFP/"+tc.bound, func(t *testing.T) {
			for _, over := range []bool{false, true} {
				names := tc.under
				if over {
					names = tc.over
				}
				perRegion := make(map[string][]float64, len(names))
				for _, name := range names {
					perRegion[name] = []float64{1}
				}
				state := &DeltaState{Boot: 1, Gen: 1, Series: &temporal.Series{
					Window:  1,
					Procs:   1,
					Windows: []temporal.WindowVector{{Events: 1, ProcSeconds: []float64{1}, PerRegion: perRegion}},
				}}
				doc, err := EncodeSnapshotFull(state)
				if over {
					if !errors.Is(err, ErrWire) || doc != nil {
						t.Fatalf("encoder returned %d bytes, error %v; want ErrWire", len(doc), err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeSnapshot(doc, nil)
				if err != nil {
					t.Fatal(err)
				}
				statesEqual(t, state, got)
			}
		})
	}
}
