package tracefmt

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// deltaCube builds a small cube with a few nonzero cells.
func deltaCube(t *testing.T) *trace.Cube {
	t.Helper()
	c, err := trace.NewCube([]string{"solve", "exchange"}, []string{"comp", "comm"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for p := 0; p < 4; p++ {
			if err := c.Set(i, 0, p, float64(10+i)+0.25*float64(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Set(1, 1, 2, 3.5); err != nil {
		t.Fatal(err)
	}
	return c
}

// deltaSeries folds a handful of events into a window series with every
// optional field populated.
func deltaSeries(t *testing.T, extra ...trace.Event) *temporal.Series {
	t.Helper()
	fold := temporal.NewFold(temporal.Options{
		Window:          1.0,
		TrackActivities: true,
		PerActivity:     true,
		PerRegion:       true,
		WindowCap:       8,
	})
	events := []trace.Event{
		{Rank: 0, Region: "solve", Activity: "comp", Start: 0, End: 2.5},
		{Rank: 1, Region: "solve", Activity: "comp", Start: 0.5, End: 2},
		{Rank: 2, Region: "exchange", Activity: "comm", Start: 2, End: 4},
		{Rank: 3, Region: "solve", Activity: "comp", Start: 3, End: 3.75},
	}
	for _, e := range append(events, extra...) {
		fold.Add(e)
	}
	return fold.Series()
}

// cubesEqual compares two cubes bit-for-bit including names and resolved
// program time.
func cubesEqual(t *testing.T, want, got *trace.Cube) {
	t.Helper()
	if want == nil || got == nil {
		if want != got {
			t.Fatalf("cube nil mismatch: want %v got %v", want == nil, got == nil)
		}
		return
	}
	if !reflect.DeepEqual(want.Regions(), got.Regions()) {
		t.Fatalf("regions %v != %v", got.Regions(), want.Regions())
	}
	if !reflect.DeepEqual(want.Activities(), got.Activities()) {
		t.Fatalf("activities %v != %v", got.Activities(), want.Activities())
	}
	if want.NumProcs() != got.NumProcs() {
		t.Fatalf("procs %d != %d", got.NumProcs(), want.NumProcs())
	}
	for i := 0; i < want.NumRegions(); i++ {
		for j := 0; j < want.NumActivities(); j++ {
			wv, _ := want.ProcTimes(i, j)
			gv, _ := got.ProcTimes(i, j)
			for p := range wv {
				if math.Float64bits(wv[p]) != math.Float64bits(gv[p]) {
					t.Fatalf("cell (%d,%d,%d): got %v want %v", i, j, p, gv[p], wv[p])
				}
			}
		}
	}
	if math.Float64bits(want.ProgramTime()) != math.Float64bits(got.ProgramTime()) {
		t.Fatalf("program time: got %v want %v", got.ProgramTime(), want.ProgramTime())
	}
}

func statesEqual(t *testing.T, want, got *DeltaState) {
	t.Helper()
	if got.Boot != want.Boot || got.Gen != want.Gen {
		t.Fatalf("identity: got (%x,%d) want (%x,%d)", got.Boot, got.Gen, want.Boot, want.Gen)
	}
	cubesEqual(t, want.Cube, got.Cube)
	if !reflect.DeepEqual(want.Series, got.Series) {
		t.Fatalf("series mismatch:\n got %+v\nwant %+v", got.Series, want.Series)
	}
}

func TestDeltaFullRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		state *DeltaState
	}{
		{"cube and series", &DeltaState{Boot: 0xdead, Gen: 7, Cube: deltaCube(t), Series: deltaSeries(t)}},
		{"cube only", &DeltaState{Boot: 1, Gen: 1, Cube: deltaCube(t)}},
		{"series only", &DeltaState{Boot: 2, Gen: 3, Series: deltaSeries(t)}},
		{"empty", &DeltaState{Boot: 9, Gen: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := EncodeSnapshotFull(tc.state)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSnapshot(doc, nil)
			if err != nil {
				t.Fatal(err)
			}
			statesEqual(t, tc.state, got)
		})
	}
}

func TestDeltaFullExplicitProgramTime(t *testing.T) {
	c := deltaCube(t)
	if err := c.SetProgramTime(1000); err != nil {
		t.Fatal(err)
	}
	state := &DeltaState{Boot: 1, Gen: 1, Cube: c}
	doc, err := EncodeSnapshotFull(state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, c, got.Cube)
}

func TestDeltaPatchRoundTrip(t *testing.T) {
	base := &DeltaState{Boot: 5, Gen: 10, Cube: deltaCube(t), Series: deltaSeries(t)}
	// Next generation: a couple of cells move, one new window appears,
	// an old window's vector changes.
	cube := base.Cube.Clone()
	if err := cube.Add(0, 0, 1, 0.125); err != nil {
		t.Fatal(err)
	}
	if err := cube.Set(1, 1, 3, 42); err != nil {
		t.Fatal(err)
	}
	series := deltaSeries(t,
		trace.Event{Rank: 1, Region: "solve", Activity: "comp", Start: 3.1, End: 5.5},
	)
	cur := &DeltaState{Boot: 5, Gen: 11, Cube: cube, Series: series}

	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	full, err := EncodeSnapshotFull(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) >= len(full) {
		t.Errorf("delta (%d bytes) not smaller than full (%d bytes)", len(doc), len(full))
	}
	got, err := DecodeSnapshot(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
	// The base must be untouched by the patch application.
	if v, _ := base.Cube.At(1, 1, 3); v == 42 {
		t.Fatal("patch mutated the base cube")
	}
}

func TestDeltaPatchUnchanged(t *testing.T) {
	base := &DeltaState{Boot: 5, Gen: 10, Cube: deltaCube(t), Series: deltaSeries(t)}
	cur := &DeltaState{Boot: 5, Gen: 10, Cube: base.Cube, Series: base.Series}
	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Header + fromGen + two unchanged ops: a dozen-odd bytes.
	if len(doc) > 32 {
		t.Errorf("unchanged delta is %d bytes", len(doc))
	}
	got, err := DecodeSnapshot(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
}

func TestDeltaShapeChangeReplaces(t *testing.T) {
	base := &DeltaState{Boot: 5, Gen: 10, Cube: deltaCube(t), Series: deltaSeries(t)}
	// New region appears: cube shape changes, patch impossible.
	cube, err := trace.NewCube([]string{"solve", "exchange", "io"}, []string{"comp", "comm"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.Set(2, 1, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	// Processor count grows: series shape changes too.
	fold := temporal.NewFold(temporal.Options{Window: 1.0})
	fold.Add(trace.Event{Rank: 5, Region: "io", Activity: "comm", Start: 0, End: 1.5})
	cur := &DeltaState{Boot: 5, Gen: 11, Cube: cube, Series: fold.Series()}
	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
}

func TestDeltaClearedSections(t *testing.T) {
	base := &DeltaState{Boot: 5, Gen: 10, Cube: deltaCube(t), Series: deltaSeries(t)}
	cur := &DeltaState{Boot: 5, Gen: 11}
	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
}

func TestDeltaSeriesShrinks(t *testing.T) {
	// A federated series can lose windows (an endpoint went stale). The
	// patch must carry removals, not just upserts.
	big := deltaSeries(t,
		trace.Event{Rank: 0, Region: "solve", Activity: "comp", Start: 5, End: 7},
	)
	small := deltaSeries(t)
	if len(big.Windows) <= len(small.Windows) {
		t.Fatalf("want big (%d windows) > small (%d)", len(big.Windows), len(small.Windows))
	}
	base := &DeltaState{Boot: 5, Gen: 10, Series: big}
	cur := &DeltaState{Boot: 5, Gen: 11, Series: small}
	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, cur, got)
}

func TestDeltaBaseMismatch(t *testing.T) {
	base := &DeltaState{Boot: 5, Gen: 10, Cube: deltaCube(t)}
	cur := &DeltaState{Boot: 5, Gen: 11, Cube: base.Cube}
	doc, err := EncodeSnapshotDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	for name, wrong := range map[string]*DeltaState{
		"nil base":  nil,
		"wrong gen": {Boot: 5, Gen: 9, Cube: base.Cube},
		"ahead gen": {Boot: 5, Gen: 11, Cube: base.Cube},
		"new boot":  {Boot: 6, Gen: 10, Cube: base.Cube},
	} {
		if _, err := DecodeSnapshot(doc, wrong); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("%s: got %v, want ErrDeltaBase", name, err)
		}
	}
	if _, err := DecodeSnapshot(doc, base); err != nil {
		t.Errorf("matching base rejected: %v", err)
	}
}

func TestDeltaAcrossBootsRefused(t *testing.T) {
	a := &DeltaState{Boot: 1, Gen: 10}
	b := &DeltaState{Boot: 2, Gen: 3}
	if _, err := EncodeSnapshotDelta(a, b); err == nil {
		t.Fatal("delta across boot nonces encoded")
	}
}

func TestDeltaDecodeRejectsGarbage(t *testing.T) {
	state := &DeltaState{Boot: 1, Gen: 2, Cube: deltaCube(t), Series: deltaSeries(t)}
	doc, err := EncodeSnapshotFull(state)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(doc); n++ {
		if _, err := DecodeSnapshot(doc[:n], nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Trailing junk is rejected.
	if _, err := DecodeSnapshot(append(append([]byte(nil), doc...), 0), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Wrong magic and version.
	bad := append([]byte(nil), doc...)
	bad[0] = 'X'
	if _, err := DecodeSnapshot(bad, nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), doc...)
	bad[4] = 99
	if _, err := DecodeSnapshot(bad, nil); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

// TestSnapshotTag: tags round-trip, and parsing accepts the whole string
// or nothing — trailing bytes, a missing part or a foreign digit is not a
// tag.
func TestSnapshotTag(t *testing.T) {
	for _, id := range [][2]uint64{{0x1f, 2}, {1, 0}, {math.MaxUint64, math.MaxUint64}} {
		tag := SnapshotTag(id[0], id[1])
		boot, gen, ok := ParseSnapshotTag(tag)
		if !ok || boot != id[0] || gen != id[1] {
			t.Errorf("ParseSnapshotTag(%q) = (%x, %d, %v), want (%x, %d, true)", tag, boot, gen, ok, id[0], id[1])
		}
	}
	if tag := SnapshotTag(0x1f, 2); tag != "b1f-g2" {
		t.Errorf("SnapshotTag(0x1f, 2) = %q, want b1f-g2", tag)
	}
	for _, bad := range []string{"", "b1f-g2junk", "b1f-g2 ", " b1f-g2", "1f-g2", "b-g2", "b1f-g", "b1f", "bxyz-g2", "b1f-g+2", "b1f-g-2", "b1f-g2-g3"} {
		if boot, gen, ok := ParseSnapshotTag(bad); ok {
			t.Errorf("ParseSnapshotTag(%q) = (%x, %d), want a rejection", bad, boot, gen)
		}
	}
}
