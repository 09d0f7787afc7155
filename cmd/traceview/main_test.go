package main

import (
	"path/filepath"
	"strings"
	"testing"

	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func TestLoadCube(t *testing.T) {
	if _, err := loadCube("x.limb", true); err == nil {
		t.Error("both -in and -paper should fail")
	}
	if _, err := loadCube("", false); err == nil {
		t.Error("no input should fail")
	}
	cube, err := loadCube("", true)
	if err != nil || cube.NumRegions() != 7 {
		t.Fatalf("paper cube: %v", err)
	}
	path := filepath.Join(t.TempDir(), "c.json")
	if err := tracefmt.SaveCube(path, cube); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCube(path, false)
	if err != nil || !cube.EqualWithin(loaded, 0) {
		t.Errorf("file load failed: %v", err)
	}
}

func TestPaperCubeActivities(t *testing.T) {
	cube, err := workload.ReconstructCube()
	if err != nil {
		t.Fatal(err)
	}
	if got := cube.Activities(); len(got) != 4 || got[0] != "computation" {
		t.Errorf("activities = %v", got)
	}
}

func TestRunFigures(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-paper", "-activity", "computation"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "legend: M max") {
		t.Errorf("figure output wrong:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-paper", "-format", "svg"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Error("svg output missing")
	}
	sb.Reset()
	if err := run([]string{"-paper", "-format", "counts", "-activity", "computation"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "upper  5") {
		t.Errorf("counts output wrong:\n%s", sb.String())
	}
	if err := run([]string{"-paper", "-format", "bogus"}, &sb); err == nil {
		t.Error("unknown format should fail")
	}
	if err := run([]string{"-paper", "-activity", "nope"}, &sb); err == nil {
		t.Error("unknown activity should fail")
	}
}

func TestRunTimeline(t *testing.T) {
	var l trace.Log
	for _, e := range []trace.Event{
		{Rank: 0, Region: "r", Activity: "comp", Start: 0, End: 2},
		{Rank: 1, Region: "r", Activity: "comp", Start: 0, End: 1},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	if err := tracefmt.SaveEvents(path, &l); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-timeline", "-events", path, "-width", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rank   0 |CCCCCCCCCC|") {
		t.Errorf("timeline output wrong:\n%s", sb.String())
	}
	if err := run([]string{"-timeline"}, &sb); err == nil {
		t.Error("timeline without events should fail")
	}
	if err := run([]string{"-timeline", "-events", filepath.Join(t.TempDir(), "missing.jsonl")}, &sb); err == nil {
		t.Error("missing events file should fail")
	}
}

func TestRunTimelinePhases(t *testing.T) {
	// Balanced stretch then a one-rank tail: one boundary, two phases.
	var l trace.Log
	for r := 0; r < 3; r++ {
		if err := l.Append(trace.Event{Rank: r, Region: "bulk", Activity: "comp", Start: 0, End: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(trace.Event{Rank: 0, Region: "tail", Activity: "comp", Start: 4, End: 8}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	if err := tracefmt.SaveEvents(path, &l); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-timeline", "-events", path, "-width", "16", "-window", "1", "-phases"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "phases   |") || !strings.Contains(out, "^") {
		t.Errorf("phase marker row missing:\n%s", out)
	}
	if !strings.Contains(out, "phases:") || !strings.Contains(out, "1. [") {
		t.Errorf("phase listing missing:\n%s", out)
	}

	// Zooming into phase 2 narrows the rendered window to its interval.
	sb.Reset()
	if err := run([]string{"-timeline", "-events", path, "-width", "16", "-window", "1", "-phase", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timeline [4.000 s, 8.000 s]") {
		t.Errorf("phase zoom window wrong:\n%s", sb.String())
	}

	// The streaming replay reports the boundary at window 4 (t=4.000 s)
	// with its online detection latency.
	sb.Reset()
	if err := run([]string{"-timeline", "-events", path, "-width", "16", "-window", "1", "-stream"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkStreamReport(t, sb.String(), streamHeader+
		"  boundary at window 4 (t=4.000 s): first flagged after window 4 (latency 1 windows)\n")

	// Flag validation.
	if err := run([]string{"-timeline", "-events", path, "-phases"}, &sb); err == nil {
		t.Error("-phases without -window should fail")
	}
	if err := run([]string{"-timeline", "-events", path, "-stream"}, &sb); err == nil {
		t.Error("-stream without -window should fail")
	}
	if err := run([]string{"-timeline", "-events", path, "-window", "1", "-phase", "9"}, &sb); err == nil {
		t.Error("out-of-range -phase should fail")
	}
	// NaN and +Inf would make every segmentation one phase, -Inf would
	// silently mean automatic.
	for _, p := range []string{"NaN", "+Inf", "-Inf"} {
		if err := run([]string{"-timeline", "-events", path, "-window", "1", "-phases", "-penalty", p}, &sb); err == nil {
			t.Errorf("-penalty %s accepted", p)
		}
	}
	// A NaN width would list no phases and +Inf one phase with NaN
	// bounds; a negative one would be ignored unless -phases asked for
	// the trajectory. 0 means no windows.
	for _, args := range [][]string{
		{"-window", "NaN", "-phases"},
		{"-window", "+Inf", "-phases"},
		{"-window", "-1"},
		{"-window", "-Inf"},
	} {
		if err := run(append([]string{"-timeline", "-events", path}, args...), &sb); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("%v: err = %v, want a -window error", args, err)
		}
	}
	if err := run([]string{"-timeline", "-events", path, "-window", "0"}, &sb); err != nil {
		t.Errorf("-window 0: %v", err)
	}
}

const streamHeader = "streaming detection (live segmenter replay, queried after every window):\n"

// checkStreamReport compares the whole streaming-detection block, which
// ends the -stream output, with want.
func checkStreamReport(t *testing.T, out, want string) {
	t.Helper()
	i := strings.Index(out, streamHeader)
	if i < 0 {
		t.Fatalf("stream replay report missing:\n%s", out)
	}
	if got := out[i:]; got != want {
		t.Errorf("stream replay report:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunStreamLatencies pins the -stream report of a five-phase run:
// rank 0 is hot in windows 10-17 and rank 3 in windows 26-32, over a
// rippling balanced load. Every prefix is segmented as a scrape would;
// the last boundary needs one window beyond its first before the
// optimum commits to it.
func TestRunStreamLatencies(t *testing.T) {
	var l trace.Log
	for w := 0; w < 40; w++ {
		for r := 0; r < 4; r++ {
			d := 0.5 + 0.03*float64((w*7+r*3)%5)
			switch {
			case w >= 10 && w < 18 && r == 0:
				d += 0.4
			case w >= 26 && w < 33 && r == 3:
				d += 0.2
			}
			if err := l.Append(trace.Event{Rank: r, Region: "loop", Activity: "comp", Start: float64(w), End: float64(w) + d}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "ev.liwp")
	if err := tracefmt.SaveEvents(path, &l); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-timeline", "-events", path, "-width", "40", "-window", "1", "-stream"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkStreamReport(t, sb.String(), streamHeader+
		"  boundary at window 10 (t=10.000 s): first flagged after window 10 (latency 1 windows)\n"+
		"  boundary at window 18 (t=18.000 s): first flagged after window 18 (latency 1 windows)\n"+
		"  boundary at window 26 (t=26.000 s): first flagged after window 26 (latency 1 windows)\n"+
		"  boundary at window 33 (t=33.000 s): first flagged after window 34 (latency 2 windows)\n")
}
