package tracefmt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loadimb/internal/trace"
)

func TestSaveOpenCubeBinary(t *testing.T) {
	cube := paperCube(t)
	path := filepath.Join(t.TempDir(), "run.lifp")
	if err := SaveCube(path, cube); err != nil {
		t.Fatal(err)
	}
	got, err := OpenCube(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 0) {
		t.Error("binary file round trip changed the cube")
	}
}

func TestSaveOpenCubeJSON(t *testing.T) {
	cube := paperCube(t)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := SaveCube(path, cube); err != nil {
		t.Fatal(err)
	}
	// The file really is JSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '{' {
		t.Errorf("file does not look like JSON: %q...", data[:20])
	}
	got, err := OpenCube(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 0) {
		t.Error("JSON file round trip changed the cube")
	}
}

func TestOpenCubeMissing(t *testing.T) {
	if _, err := OpenCube(filepath.Join(t.TempDir(), "missing.lifp")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestOpenCubeCorruptMentionsPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.lifp")
	if err := os.WriteFile(path, []byte("garbage data here"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCube(path)
	if err == nil {
		t.Fatal("corrupt file should fail")
	}
	if !strings.Contains(err.Error(), "bad.lifp") {
		t.Errorf("error should mention the path: %v", err)
	}
}

// TestOpenOldFormatsRefused: a LIMB cube file or a JSON Lines event file
// from before the formats were unified is refused with ErrBadMagic naming
// its path.
func TestOpenOldFormatsRefused(t *testing.T) {
	dir := t.TempDir()
	cubePath := filepath.Join(dir, "old.limb")
	if err := os.WriteFile(cubePath, []byte("LIMB\x01\x00\x00\x00\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	eventsPath := filepath.Join(dir, "old.jsonl")
	if err := os.WriteFile(eventsPath, []byte(`{"rank":0,"region":"r","activity":"a","start":0,"end":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cubeErr := OpenCube(cubePath)
	_, eventsErr := OpenEvents(eventsPath)
	for path, err := range map[string]error{cubePath: cubeErr, eventsPath: eventsErr} {
		if !errors.Is(err, ErrBadMagic) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want ErrBadMagic naming the path", path, err)
		}
	}
}

func TestSaveCubeBadDir(t *testing.T) {
	cube := paperCube(t)
	if err := SaveCube(filepath.Join(t.TempDir(), "no", "such", "dir.lifp"), cube); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestSaveOpenEvents(t *testing.T) {
	var log trace.Log
	if err := log.Append(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.liwp")
	if err := SaveEvents(path, &log); err != nil {
		t.Fatal(err)
	}
	got, err := OpenEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Events()[0].Region != "r" {
		t.Errorf("events round trip = %+v", got.Events())
	}
}

func TestOpenEventsMissing(t *testing.T) {
	if _, err := OpenEvents(filepath.Join(t.TempDir(), "missing.liwp")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSaveOpenCubeCSV(t *testing.T) {
	cube := paperCube(t)
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := SaveCube(path, cube); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "region,activity,proc,seconds") {
		t.Error("file does not look like the CSV format")
	}
	got, err := OpenCube(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.EqualWithin(got, 1e-12) {
		t.Error("CSV file round trip changed the cube")
	}
}
