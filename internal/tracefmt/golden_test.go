package tracefmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// The golden digests pin both byte formats: LIWP v1 and LIFP v1 are wire
// contracts with producers and federators that may run other builds, so
// a codec refactor must not move a single byte. The digests were
// recorded from the encoders before LIWP and LIFP were moved onto the
// shared primitives of codec.go. A change to either format must bump its
// version, not these constants.
const (
	goldenWireLen    = 1205
	goldenWireSHA256 = "04221bbff4cedfcfa4f7711171893ca94395d3a055691ad65bee83beab8e4b86"

	goldenFullLen     = 935
	goldenFullSHA256  = "f99140f9396d9b77ba70c655ad54f273e062a9fac8ba2a79d9a6ed707f68dc3c"
	goldenDeltaLen    = 860
	goldenDeltaSHA256 = "0666858ec37d662af8008bb37250f2dfd7f78d0610f3670448c6ae229ca2ab5d"
)

// checkGolden compares an encoding against its recorded length and
// digest, printing the bytes on a mismatch so a diff is possible.
func checkGolden(t *testing.T, what string, got []byte, wantLen int, wantSHA string) {
	t.Helper()
	sum := sha256.Sum256(got)
	if len(got) != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
		t.Fatalf("%s: %d bytes, sha256 %x; want %d bytes, sha256 %s\n%x",
			what, len(got), sum, wantLen, wantSHA, got)
	}
}

// goldenBatches is a fixed LIWP stream: four batches over three ranks,
// four regions and three activities. Ranks interleave (negative rank
// deltas), names recur out of order (table references past the memo),
// and durations vary (multi-byte timestamp deltas).
func goldenBatches() [][]trace.Event {
	regions := []string{"init", "loop 1", "loop 2", "halo-exchange"}
	activities := []string{"computation", "point-to-point", "collective"}
	var cursor [3]float64
	var batches [][]trace.Event
	i := 0
	for _, size := range []int{1, 7, 40, 13} {
		batch := make([]trace.Event, size)
		for k := range batch {
			r := i % 3
			d := 0.0625*float64(1+i%5) + 1e-3*float64(i)
			batch[k] = trace.Event{
				Rank:     r,
				Region:   regions[(i/3)%len(regions)],
				Activity: activities[(i*7/4)%len(activities)],
				Start:    cursor[r],
				End:      cursor[r] + d,
			}
			cursor[r] += d
			i++
		}
		batches = append(batches, batch)
	}
	return batches
}

// TestWireGolden: the LIWP encoding of a fixed stream is byte-identical
// to the recorded one, and decodes back to the stream.
func TestWireGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := NewWireEncoder(&buf)
	var want []trace.Event
	for _, batch := range goldenBatches() {
		if err := enc.EncodeBatch(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	checkGolden(t, "LIWP stream", buf.Bytes(), goldenWireLen, goldenWireSHA256)
	got := decodeAll(t, &buf)
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// goldenWindow builds one window vector with every optional field set.
func goldenWindow(idx, events int, scale float64, dominant string) temporal.WindowVector {
	vec := func(f float64) []float64 {
		return []float64{scale * f, scale * f * 0.5, scale * f * 0.25}
	}
	return temporal.WindowVector{
		Index:       idx,
		Events:      events,
		ProcSeconds: vec(1),
		Dominant:    dominant,
		PerActivity: map[string][]float64{"comp": vec(0.75), "comm": vec(0.25)},
		PerRegion:   map[string][]float64{"solve": vec(0.625), "exchange": vec(0.375)},
	}
}

// goldenStates returns two generations of one endpoint: a cube whose
// cells and explicit program time move, and a bounded series whose ring
// advances — two windows decimate into a grown coarse tail (removals),
// one window changes, one stays, two are new.
func goldenStates(t *testing.T) (prev, cur *DeltaState) {
	t.Helper()
	cube, err := trace.NewCube([]string{"solve", "exchange", "io"}, []string{"comp", "comm"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for p := 0; p < 3; p++ {
			if err := cube.Set(i, 0, p, float64(4+i)+0.125*float64(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cube.Set(1, 1, 2, 2.75); err != nil {
		t.Fatal(err)
	}
	if err := cube.SetProgramTime(40); err != nil {
		t.Fatal(err)
	}
	next := cube.Clone()
	for _, c := range []struct {
		i, j, p int
		dt      float64
	}{{0, 0, 1, 0.5}, {2, 1, 0, 1.25}, {1, 1, 2, 0.0625}} {
		if err := next.Add(c.i, c.j, c.p, c.dt); err != nil {
			t.Fatal(err)
		}
	}
	if err := next.SetProgramTime(44.5); err != nil {
		t.Fatal(err)
	}
	prevSeries := &temporal.Series{
		Window:       0.5,
		Procs:        3,
		CoarseWindow: 2,
		RingStart:    8,
		Coarse:       []temporal.WindowVector{goldenWindow(0, 9, 3, "comp"), goldenWindow(1, 4, 2.5, "comm")},
		Windows: []temporal.WindowVector{
			goldenWindow(8, 3, 0.5, "comp"), goldenWindow(9, 2, 0.25, "comm"),
			goldenWindow(10, 1, 0.125, "comp"), goldenWindow(11, 5, 0.375, "comp"),
		},
	}
	curSeries := &temporal.Series{
		Window:       0.5,
		Procs:        3,
		CoarseWindow: 2,
		RingStart:    10,
		Coarse: []temporal.WindowVector{
			goldenWindow(0, 9, 3, "comp"), goldenWindow(1, 4, 2.5, "comm"), goldenWindow(2, 5, 0.75, "comp"),
		},
		Windows: []temporal.WindowVector{
			goldenWindow(10, 2, 0.1875, "comm"), goldenWindow(11, 5, 0.375, "comp"),
			goldenWindow(12, 4, 0.4375, "comp"), goldenWindow(13, 1, 0.0625, "comm"),
		},
	}
	prev = &DeltaState{Boot: 0x5eed, Gen: 41, Cube: cube, Series: prevSeries}
	cur = &DeltaState{Boot: 0x5eed, Gen: 42, Cube: next, Series: curSeries}
	return prev, cur
}

// TestDeltaGolden: the LIFP full and delta documents of two fixed
// generations are byte-identical to the recorded ones, and decode back
// to those generations.
func TestDeltaGolden(t *testing.T) {
	prev, cur := goldenStates(t)
	full, err := EncodeSnapshotFull(prev)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeSnapshotDelta(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "LIFP full document", full, goldenFullLen, goldenFullSHA256)
	checkGolden(t, "LIFP delta document", delta, goldenDeltaLen, goldenDeltaSHA256)
	base, err := DecodeSnapshot(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, prev, base)
	got, err := DecodeSnapshot(delta, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
}
