package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loadimb/internal/core"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func paperAnalysis(t *testing.T) *core.Analysis {
	t.Helper()
	cube, err := workload.ReconstructCube()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(cube, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLoadCube(t *testing.T) {
	if _, err := loadCube("x.limb", true, nil); err == nil {
		t.Error("both -in and -paper should fail")
	}
	if _, err := loadCube("", false, nil); err == nil {
		t.Error("neither -in nor -paper should fail")
	}
	cube, err := loadCube("", true, nil)
	if err != nil || cube.NumProcs() != 16 {
		t.Fatalf("paper cube: %v, %v", cube, err)
	}
	path := filepath.Join(t.TempDir(), "c.limb")
	if err := tracefmt.SaveCube(path, cube); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCube(path, false, nil)
	if err != nil || !cube.EqualWithin(loaded, 0) {
		t.Errorf("file cube: %v", err)
	}
	if _, err := loadCube(filepath.Join(t.TempDir(), "missing.limb"), false, nil); err == nil {
		t.Error("missing file should fail")
	}
}

func TestPrintTables(t *testing.T) {
	a := paperAnalysis(t)
	var sb strings.Builder
	if err := printTables(&sb, a, "all"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-tables output missing %q", want)
		}
	}
	sb.Reset()
	if err := printTables(&sb, a, "2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.30571") {
		t.Error("table 2 missing the loop 5 sync index")
	}
	if err := printTables(&sb, a, "9"); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestPrintClusters(t *testing.T) {
	a := paperAnalysis(t)
	var sb strings.Builder
	printClusters(&sb, a)
	out := sb.String()
	if !strings.Contains(out, "loop 1, loop 2") {
		t.Errorf("clusters output wrong:\n%s", out)
	}
	// No clusters case.
	a.Clusters = nil
	sb.Reset()
	printClusters(&sb, a)
	if !strings.Contains(sb.String(), "skipped") {
		t.Errorf("empty clusters output: %q", sb.String())
	}
}

func TestPrintView(t *testing.T) {
	a := paperAnalysis(t)
	var sb strings.Builder
	if err := printView(&sb, a, "processor"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "most frequently imbalanced") || !strings.Contains(out, "*") {
		t.Errorf("processor view output wrong:\n%s", out)
	}
	// Loop 1 performs no point-to-point, but every processor has some
	// time in it, so all 7 rows render with 16 columns each.
	if strings.Count(out, "\n") < 8 {
		t.Errorf("too few rows:\n%s", out)
	}
	if err := printView(&sb, a, "bogus"); err == nil {
		t.Error("unknown view should fail")
	}
}

func TestLoadCubeErrorTypes(t *testing.T) {
	// A corrupt file surfaces a tracefmt error, not a panic.
	path := filepath.Join(t.TempDir(), "bad.limb")
	if err := tracefmt.SaveCube(path, mustPaperCube(t)); err != nil {
		t.Fatal(err)
	}
	// Truncate it.
	if err := truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	_, err := loadCube(path, false, nil)
	if err == nil || !errors.Is(err, tracefmt.ErrCorrupt) {
		t.Errorf("corrupt err = %v", err)
	}
}

func mustPaperCube(t *testing.T) *trace.Cube {
	t.Helper()
	cube, err := workload.ReconstructCube()
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func truncate(path string, n int64) error {
	return os.Truncate(path, n)
}

func TestParseCriterion(t *testing.T) {
	good := map[string]string{
		"max":           "max",
		"top3":          "top3",
		"p90":           "p90",
		"zscore":        "zscore(2)",
		"threshold:0.1": "threshold(0.1)",
	}
	for spec, wantName := range good {
		c, err := parseCriterion(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if c.Name() != wantName {
			t.Errorf("%q: name = %q, want %q", spec, c.Name(), wantName)
		}
	}
	for _, bad := range []string{"", "topx", "top0", "pxx", "threshold:abc", "bogus"} {
		if _, err := parseCriterion(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestPrintCandidates(t *testing.T) {
	a := paperAnalysis(t)
	var sb strings.Builder
	if err := printCandidates(&sb, a, "top2"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1. loop 1") || !strings.Contains(out, "2. loop 4") {
		t.Errorf("candidates output wrong:\n%s", out)
	}
	sb.Reset()
	if err := printCandidates(&sb, a, "threshold:99"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "flags no region") {
		t.Errorf("empty candidates output: %q", sb.String())
	}
	if err := printCandidates(&sb, a, "bogus"); err == nil {
		t.Error("bad criterion should fail")
	}
}

func TestRunEndToEnd(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-paper", "-table", "all", "-cluster", "-heatmap", "-candidates", "top2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 4", "cluster 1", "heat map", "1. loop 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q", want)
		}
	}
	sb.Reset()
	if err := run([]string{"-paper", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "section,region,activity,value") {
		t.Error("csv mode wrong")
	}
	sb.Reset()
	if err := run([]string{"-paper"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tuning candidate") {
		t.Error("default summary missing")
	}
	if err := run([]string{"-paper", "-index", "bogus"}, &sb); err == nil {
		t.Error("unknown index should fail")
	}
	if err := run([]string{"-nosuchflag"}, &sb); err == nil {
		t.Error("bad flag should fail")
	}
	// Alternative index end to end.
	sb.Reset()
	if err := run([]string{"-paper", "-table", "2", "-index", "gini"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("gini table missing")
	}
}

func TestRunMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-paper", "-markdown"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "### Table 4") {
		t.Errorf("markdown output missing:\n%s", sb.String())
	}
}

func TestRunTemporalPhases(t *testing.T) {
	// Balanced stretch then a rank-0-only tail: two phases with clearly
	// different per-phase ID_P.
	var lg trace.Log
	for r := 0; r < 4; r++ {
		if err := lg.Append(trace.Event{Rank: r, Region: "bulk", Activity: "computation", Start: 0, End: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Append(trace.Event{Rank: 0, Region: "tail", Activity: "computation", Start: 5, End: 10}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.events")
	if err := tracefmt.SaveEvents(path, &lg); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-events", path, "-window", "1", "-phases"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"imbalance trajectory", "phases (penalized change-point", "quiet", "hot", "ID_P"} {
		if !strings.Contains(out, want) {
			t.Errorf("temporal output missing %q:\n%s", want, out)
		}
	}

	// The activity filter restricts the trajectory.
	sb.Reset()
	if err := run([]string{"-events", path, "-window", "1", "-activity", "computation"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "computation):") {
		t.Errorf("filtered trajectory header missing:\n%s", sb.String())
	}

	// Per-activity segmentation: each activity gets its own phase list.
	// "computation" runs throughout while "tailwork" exists only in the
	// tail, so their segmentations differ.
	sb.Reset()
	if err := run([]string{"-events", path, "-window", "1", "-per-activity"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"per-activity segmentation", "computation:", "phase 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("per-activity output missing %q:\n%s", want, out)
		}
	}

	// Flag validation.
	if err := run([]string{"-window", "1"}, &sb); err == nil {
		t.Error("-window without -events should fail")
	}
	if err := run([]string{"-events", path, "-phases"}, &sb); err == nil {
		t.Error("-phases without -window should fail")
	}
	if err := run([]string{"-events", path, "-per-activity"}, &sb); err == nil {
		t.Error("-per-activity without -window should fail")
	}
	// NaN and +Inf would make every segmentation one phase, -Inf would
	// silently mean automatic.
	for _, p := range []string{"NaN", "+Inf", "-Inf"} {
		if err := run([]string{"-events", path, "-window", "1", "-phases", "-penalty", p}, &sb); err == nil {
			t.Errorf("-penalty %s accepted", p)
		}
	}
	// A NaN width would silently mean no trajectory and +Inf one window
	// with NaN bounds; a negative one would be ignored unless -phases
	// asked for the trajectory. 0 means no windows.
	for _, args := range [][]string{
		{"-window", "NaN", "-phases"},
		{"-window", "+Inf", "-phases"},
		{"-window", "-1"},
		{"-window", "-Inf"},
	} {
		if err := run(append([]string{"-events", path}, args...), &sb); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("%v: err = %v, want a -window error", args, err)
		}
	}
	if err := run([]string{"-events", path, "-window", "0"}, &sb); err != nil {
		t.Errorf("-window 0: %v", err)
	}
}

func TestRunDiagnose(t *testing.T) {
	// Four ranks, one of which (rank 2) does triple computation in the
	// solve region: the diagnosis must name it and the dominant activity.
	var lg trace.Log
	for r := 0; r < 4; r++ {
		end := 4.0
		if r == 2 {
			end = 12.0
		}
		if err := lg.Append(trace.Event{Rank: r, Region: "solve", Activity: "computation", Start: 0, End: end}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.events")
	if err := tracefmt.SaveEvents(path, &lg); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-events", path, "-window", "1", "-diagnose"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"automatic diagnosis", "cohort", "rank 2", "computation"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnose output missing %q:\n%s", want, out)
		}
	}

	// JSON mode emits the raw report document.
	sb.Reset()
	if err := run([]string{"-events", path, "-window", "1", "-diagnose", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"findings"`) || !strings.Contains(sb.String(), `"rank": 2`) {
		t.Errorf("diagnose -json output wrong:\n%s", sb.String())
	}

	// Flag validation.
	if err := run([]string{"-events", path, "-diagnose"}, &sb); err == nil {
		t.Error("-diagnose without -window should fail")
	}
	if err := run([]string{"-diagnose", "-window", "1"}, &sb); err == nil {
		t.Error("-diagnose without -events should fail")
	}
}

func TestRankRanges(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, "[]"},
		{[]int{3}, "[3]"},
		{[]int{0, 1, 2, 3}, "[0-3]"},
		{[]int{0, 1, 2, 4, 6, 7}, "[0-2 4 6-7]"},
	}
	for _, c := range cases {
		if got := rankRanges(c.in); got != c.want {
			t.Errorf("rankRanges(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
