package main

// compare reads the -out results of two sets of runs, a parent and a
// change, and judges every workload × metric by the rules the benchmark is
// accepted under: a gain needs the change to win at least nine pairs in
// ten and a median gap wider than the parent's own interquartile range; a
// metric whose run-to-run spread is wider than its bound is unresolved,
// not unchanged, unless every change run beats every parent run; a change
// whose median is worse than the parent's by more than the bound is a
// regression.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictNoClaim    = "no claim"
)

// judgement is the comparison of one metric on one workload.
type judgement struct {
	verdict      string
	wins, pairs  int
	base, change [3]float64 // q1, median, q3
}

// judge compares the parent's runs with the change's. Runs pair up in
// order (the caller sorts both sides the same way); better is "lower" or
// "higher"; bound is the share of the parent's median the metric may
// worsen by, 0 for a metric without a bound.
func judge(base, change []float64, better string, bound float64) judgement {
	var j judgement
	j.base[0], j.base[1], j.base[2] = quartiles(base)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	sign := 1.0 // > 0 when change beats base
	if better == "lower" {
		sign = -1
	}
	j.pairs = min(len(base), len(change))
	losses := 0
	for k := 0; k < j.pairs; k++ {
		switch d := sign * (change[k] - base[k]); {
		case d > 0:
			j.wins++
		case d < 0:
			losses++
		}
	}
	if j.pairs == 0 {
		j.verdict = verdictNoClaim
		return j
	}
	gap := sign * (j.change[1] - j.base[1])
	baseIQR := j.base[2] - j.base[0]
	gain := j.wins*10 >= 9*j.pairs && gap > baseIQR
	loss := losses*10 >= 9*j.pairs && -gap > baseIQR
	allBetter := true
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case bound == 0 && gain:
		j.verdict = verdictBetter
	case bound == 0 && loss:
		j.verdict = verdictWorse
	case bound == 0:
		j.verdict = verdictNoClaim
	case gain && allBetter:
		j.verdict = verdictBetter
	case spread(j.base) > bound || spread(j.change) > bound:
		j.verdict = verdictUnresolved
	case -gap > bound*math.Abs(j.base[1]):
		j.verdict = verdictWorse
	case gain:
		j.verdict = verdictBetter
	default:
		j.verdict = verdictWithin
	}
	return j
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// readResults reads -out files and groups them by directory, in the order
// the directories first appear.
func readResults(files []string) ([]string, map[string][]*result, error) {
	var dirs []string
	byDir := make(map[string][]*result)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		d := filepath.Dir(f)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], &r)
	}
	return dirs, byDir, nil
}

// runsOf returns one side's runs of a workload with the given trace
// setting, sorted by seed so the two sides pair up seed by seed.
func runsOf(rs []*result, workload string, trace int) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// failures sums failed and attempted operations over runs.
func failures(rs []*result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	dirs, byDir, err := readResults(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	if len(dirs) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] BASE_DIR/*.json CHANGE_DIR/*.json (two directories, parent first)")
		return 2
	}
	base, change := byDir[dirs[0]], byDir[dirs[1]]
	fmt.Printf("base %s (%d runs), change %s (%d runs)\n", dirs[0], len(base), dirs[1], len(change))
	fmt.Printf("%-13s %-30s %31s %31s %6s  %s\n", "workload", "metric", "base median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	status := 0
	for _, w := range spec.Workloads {
		// End-to-end metrics come from untraced runs, per-layer ones from
		// traced runs.
		for trace, metrics := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			b, c := runsOf(base, w.Name, trace), runsOf(change, w.Name, trace)
			for _, m := range metrics {
				bv, cv := values(b, m.Name), values(c, m.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				j := judge(bv, cv, m.Better, m.Bound)
				fmt.Printf("%-13s %-30s %11.4g [%8.4g %8.4g] %11.4g [%8.4g %8.4g] %2d/%-3d  %s\n",
					w.Name, m.Name, j.base[1], j.base[0], j.base[2], j.change[1], j.change[0], j.change[2], j.wins, j.pairs, j.verdict)
				if j.verdict == verdictWorse && m.Bound > 0 {
					status = 1
				}
			}
			bf, ba := failures(b)
			cf, ca := failures(c)
			if cf*max(ba, 1) > bf*max(ca, 1) {
				fmt.Printf("%-13s %-30s change failed %d of %d, parent %d of %d: more operations failed\n", w.Name, "error_rate", cf, ca, bf, ba)
				status = 1
			}
		}
	}
	return status
}
