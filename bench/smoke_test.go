package main

import (
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the run is correct and reports every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, _, err := run(options{workload: w.Name, seed: 1, seconds: 0.3, warmup: 0.1, trace: traced, setups: 1})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			// Under the race detector the query workload's collector is too
			// slow to finish a request in so short a run, so there only the
			// failure count is checked.
			if res.Failed != 0 || (!raceEnabled && !res.Correct) {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if _, err := specLine(res, want); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
		}
	}
}
