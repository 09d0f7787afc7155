package main

import (
	"path/filepath"
	"strings"
	"testing"

	"loadimb/internal/tracefmt"
)

// fastArgs returns CLI arguments for a quick run.
func fastArgs(extra ...string) []string {
	return append([]string{"-gridx", "64", "-gridy", "64", "-iters", "4"}, extra...)
}

func TestRunSummary(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-summary"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"simulated 4 iterations on 16 processors",
		"heaviest region: loop 1",
		"dominant activity: computation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWritesAllOutputs(t *testing.T) {
	dir := t.TempDir()
	cubePath := filepath.Join(dir, "run.limb")
	eventsPath := filepath.Join(dir, "run.jsonl")
	bytesPath := filepath.Join(dir, "bytes.json")
	var sb strings.Builder
	err := run(fastArgs("-out", cubePath, "-events", eventsPath, "-bytes", bytesPath), &sb)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := tracefmt.OpenCube(cubePath)
	if err != nil {
		t.Fatal(err)
	}
	if cube.NumRegions() != 7 || cube.NumProcs() != 16 {
		t.Errorf("cube dims = %d, %d", cube.NumRegions(), cube.NumProcs())
	}
	log, err := tracefmt.OpenEvents(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Error("event trace is empty")
	}
	bytesCube, err := tracefmt.OpenCube(bytesPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytesCube.NumRegions() != 7 {
		t.Errorf("bytes cube regions = %d", bytesCube.NumRegions())
	}
}

func TestRunInvalidConfig(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-procs", "1"}, &sb); err == nil {
		t.Error("invalid config should fail")
	}
	if err := run([]string{"-imbalance", "7"}, &sb); err == nil {
		t.Error("bad imbalance should fail")
	}
	if err := run([]string{"-nosuchflag"}, &sb); err == nil {
		t.Error("unknown flag should fail")
	}
	// A NaN or negative width would silently turn the -serve
	// collector's windowing off, and +Inf would make its window
	// documents fail to encode.
	for _, w := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		if err := run(fastArgs("-window", w), &sb); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("-window %s: err = %v, want a -window error", w, err)
		}
	}
}

func TestRunBadOutputPath(t *testing.T) {
	var sb strings.Builder
	err := run(fastArgs("-out", filepath.Join(t.TempDir(), "no", "dir", "x.limb")), &sb)
	if err == nil {
		t.Error("unwritable output should fail")
	}
}

func TestRunServe(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-serve", "127.0.0.1:0", "-linger", "10ms"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "serving live metrics on http://127.0.0.1:") {
		t.Errorf("missing serve announcement:\n%s", out)
	}
	if !strings.Contains(out, "lingering 10ms") {
		t.Errorf("missing linger notice:\n%s", out)
	}
	var sb2 strings.Builder
	if err := run(fastArgs("-serve", "256.0.0.1:99999"), &sb2); err == nil {
		t.Error("unlistenable -serve address should fail")
	}
}
