package tracefmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"loadimb/internal/trace"
	"loadimb/internal/workload"
)

func paperCube(t *testing.T) *trace.Cube {
	t.Helper()
	cube, err := workload.ReconstructCube()
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func TestBinaryRoundTrip(t *testing.T) {
	cube := paperCube(t)
	var buf bytes.Buffer
	if err := WriteCube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 0) {
		t.Error("binary round trip changed the cube")
	}
}

func TestBinaryRoundTripNoProgramTime(t *testing.T) {
	cube, err := trace.NewCube([]string{"r"}, []string{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.Set(0, 0, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 1e-15) {
		t.Error("round trip without explicit program time failed")
	}
}

func TestWriteCubeNil(t *testing.T) {
	if err := WriteCube(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil cube should fail")
	}
	if err := WriteCubeJSON(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil cube should fail (JSON)")
	}
}

func TestReadCubeBadMagic(t *testing.T) {
	if _, err := ReadCube(strings.NewReader("NOPE....")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v", err)
	}
	if _, err := ReadCube(strings.NewReader("LI")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("short magic err = %v", err)
	}
}

func TestReadCubeBadVersion(t *testing.T) {
	cube := paperCube(t)
	var buf bytes.Buffer
	if err := WriteCube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // the uvarint version after the "LIFP" magic
	if _, err := ReadCube(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version err = %v", err)
	}
}

func TestReadCubeTruncated(t *testing.T) {
	cube := paperCube(t)
	var buf bytes.Buffer
	if err := WriteCube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{6, 20, 60, len(data) - 8} {
		if _, err := ReadCube(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at %d: err = %v", cut, err)
		}
	}
}

// TestReadCubeHugeDimensions: a few hundred bytes declaring a 64 x 64 x
// 2^20 cube (32 GiB of cells, each dimension within bounds) are refused
// before the cube is allocated.
func TestReadCubeHugeDimensions(t *testing.T) {
	doc := []byte(DeltaMagic)
	doc = append(doc, DeltaVersion, deltaKindFull, 0, 0, deltaOpPresent)
	doc = binary.AppendUvarint(doc, 64)
	doc = binary.AppendUvarint(doc, 64)
	doc = binary.AppendUvarint(doc, 1<<20)
	for i := 0; i < 128; i++ {
		name := fmt.Sprintf("n%d", i)
		doc = append(doc, 0, byte(len(name)))
		doc = append(doc, name...)
	}
	doc = append(doc, 0, 0, deltaOpAbsent) // program time, no cells, no series
	if len(doc) > 1024 {
		t.Fatalf("document is %d bytes, want a few hundred", len(doc))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCube(bytes.NewReader(doc))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge dims err = %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing a %d-byte document allocated %d bytes", len(doc), alloc)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cube := paperCube(t)
	var buf bytes.Buffer
	if err := WriteCubeJSON(&buf, cube); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCubeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 0) {
		t.Error("JSON round trip changed the cube")
	}
}

func TestJSONBadInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"regions":["r"],"activities":["a"],"procs":1,"program_time":0,"times":[]}`,
		`{"regions":["r"],"activities":["a"],"procs":1,"program_time":0,"times":[[]]}`,
		`{"regions":["r"],"activities":["a"],"procs":2,"program_time":0,"times":[[[1]]]}`,
		`{"regions":["r"],"activities":["a"],"procs":1,"program_time":0,"times":[[[-1]]]}`,
		`{"regions":[],"activities":["a"],"procs":1,"program_time":0,"times":[]}`,
		`{"regions":["r"],"activities":["a"],"procs":1,"unknown_field":1,"times":[[[1]]]}`,
	}
	for i, c := range cases {
		if _, err := ReadCubeJSON(strings.NewReader(c)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestEventsRoundTrip(t *testing.T) {
	var log trace.Log
	events := []trace.Event{
		{Rank: 0, Region: "l1", Activity: "comp", Start: 0, End: 2},
		{Rank: 1, Region: "l1", Activity: "p2p", Start: 0.5, End: 1.25},
		{Rank: 0, Region: "l2", Activity: "sync", Start: 2, End: 2.0625},
	}
	for _, e := range events {
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, &log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(events) {
		t.Fatalf("round trip lost events: %d of %d", got.Len(), len(events))
	}
	for i, e := range got.Events() {
		if e != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, events[i])
		}
	}
}

func TestWriteEventsNil(t *testing.T) {
	if err := WriteEvents(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil log should fail")
	}
}

func TestReadEventsBad(t *testing.T) {
	invalid := wireStream(t, []trace.Event{{Rank: -1, Region: "r", Activity: "a", Start: 0, End: 1}})
	if _, err := ReadEvents(bytes.NewReader(invalid)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("invalid event err = %v", err)
	}
	if _, err := ReadEvents(strings.NewReader(`garbage`)); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrBadMagic) {
		t.Errorf("garbage err = %v", err)
	}
	if _, err := ReadEvents(strings.NewReader(WireMagic + "\x01garbage")); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrWire) {
		t.Errorf("garbage frame err = %v", err)
	}
	log, err := ReadEvents(strings.NewReader(""))
	if err != nil || log.Len() != 0 {
		t.Errorf("empty input = %d events, %v", log.Len(), err)
	}
}

func TestEventsAggregateAfterRoundTrip(t *testing.T) {
	// The full pipeline: events -> file -> events -> cube.
	var log trace.Log
	for _, e := range []trace.Event{
		{Rank: 0, Region: "l", Activity: "a", Start: 0, End: 3},
		{Rank: 1, Region: "l", Activity: "a", Start: 0, End: 1},
	} {
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, &log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := got.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cube.CellTime(0, 0)
	if err != nil || v != 2 {
		t.Errorf("cell time = %g, %v", v, err)
	}
}

// TestAllFormatsRoundTripProperty: random cubes survive every format.
func TestAllFormatsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n, k, p := 1+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(8)
		regions := make([]string, n)
		for i := range regions {
			regions[i] = fmt.Sprintf("region-%d", i)
		}
		activities := make([]string, k)
		for j := range activities {
			activities[j] = fmt.Sprintf("act-%d", j)
		}
		cube, err := trace.NewCube(regions, activities, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				for q := 0; q < p; q++ {
					if err := cube.Set(i, j, q, rng.Float64()*100); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if rng.Intn(2) == 0 {
			if err := cube.SetProgramTime(cube.RegionsTotal() + rng.Float64()*10); err != nil {
				t.Fatal(err)
			}
		}
		// Binary and JSON are bit-exact; CSV goes through decimal text.
		var bin, js, cs bytes.Buffer
		if err := WriteCube(&bin, cube); err != nil {
			t.Fatal(err)
		}
		gotBin, err := ReadCube(&bin)
		if err != nil || !cube.EqualWithin(gotBin, 0) {
			t.Fatalf("trial %d: binary round trip failed: %v", trial, err)
		}
		if err := WriteCubeJSON(&js, cube); err != nil {
			t.Fatal(err)
		}
		gotJS, err := ReadCubeJSON(&js)
		if err != nil || !cube.EqualWithin(gotJS, 0) {
			t.Fatalf("trial %d: JSON round trip failed: %v", trial, err)
		}
		if err := WriteCubeCSV(&cs, cube); err != nil {
			t.Fatal(err)
		}
		gotCS, err := ReadCubeCSV(&cs)
		if err != nil || !cube.EqualWithin(gotCS, 1e-9) {
			t.Fatalf("trial %d: CSV round trip failed: %v", trial, err)
		}
	}
}
