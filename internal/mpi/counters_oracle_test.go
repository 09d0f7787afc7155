package mpi_test

import (
	"math"
	"slices"
	"testing"

	"loadimb/internal/apps"
	"loadimb/internal/cfd"
	"loadimb/internal/mpi"
	"loadimb/internal/rebalance"
	"loadimb/internal/trace"
)

// TestBytesCubeMatchesPerIncrement: on real CFD, AMR, master-worker and
// wavefront runs, the ledger that folds each (region, activity) cell as
// its increments arrive aggregates into the cube the per-increment
// replay builds, with an explicit and a nil region order: the same axes,
// every cell bit for bit, and the same program time.
func TestBytesCubeMatchesPerIncrement(t *testing.T) {
	smallCFD := func() cfd.Config {
		cfg := cfd.Defaults()
		cfg.GridX, cfg.GridY, cfg.Iterations = 64, 64, 4
		return cfg
	}
	runs := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cfd", func(t *testing.T) {
			if _, err := cfd.Run(smallCFD()); err != nil {
				t.Fatal(err)
			}
		}},
		{"cfd-straggler-predictive", func(t *testing.T) {
			cfg := smallCFD()
			cfg.Procs, cfg.Imbalance, cfg.SlowRank, cfg.SlowFactor = 16, 0.6, 5, 3
			ctrl, err := rebalance.New(rebalance.PolicyPredictive, rebalance.Options{Target: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Rebalance = ctrl
			if _, err := cfd.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"amr", func(t *testing.T) {
			if _, err := apps.AMR(apps.DefaultAMR()); err != nil {
				t.Fatal(err)
			}
		}},
		{"amr-sweeps", func(t *testing.T) {
			cfg := apps.DefaultAMR()
			cfg.Sweeps = 3
			if _, err := apps.AMR(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"master-worker", func(t *testing.T) {
			cfg := apps.DefaultMasterWorker()
			cfg.Schedule = apps.DynamicSchedule
			if _, err := apps.MasterWorker(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"wavefront", func(t *testing.T) {
			if _, err := apps.Wavefront(apps.DefaultWavefront()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			stop := mpi.RecordIncrements()
			tc.run(t)
			worlds := stop()
			if len(worlds) == 0 {
				t.Fatal("the run recorded no byte increments")
			}
			for w, incs := range worlds {
				nilCube, err := w.BytesCube(nil)
				if err != nil {
					t.Fatal(err)
				}
				// An explicit order: the regions of first appearance,
				// reversed, behind a name the run never uses.
				order := append([]string{"unused"}, nilCube.Regions()...)
				slices.Reverse(order[1:])
				for _, regions := range [][]string{nil, order} {
					got, err := w.BytesCube(regions)
					if err != nil {
						t.Fatal(err)
					}
					want, err := mpi.ReplayIncrements(incs, regions)
					if err != nil {
						t.Fatal(err)
					}
					sameCube(t, got, want)
				}
			}
		})
	}
}

// sameCube fails unless got and want have the same axes, program time and
// cells, compared bit for bit.
func sameCube(t *testing.T, got, want *trace.Cube) {
	t.Helper()
	if !slices.Equal(got.Regions(), want.Regions()) || !slices.Equal(got.Activities(), want.Activities()) || got.NumProcs() != want.NumProcs() {
		t.Fatalf("axes %v × %v × %d, want %v × %v × %d",
			got.Regions(), got.Activities(), got.NumProcs(), want.Regions(), want.Activities(), want.NumProcs())
	}
	if math.Float64bits(got.ProgramTime()) != math.Float64bits(want.ProgramTime()) {
		t.Fatalf("program time %v, want %v", got.ProgramTime(), want.ProgramTime())
	}
	for i := range got.NumRegions() {
		for j := range got.NumActivities() {
			for p := range got.NumProcs() {
				g, _ := got.At(i, j, p)
				w, _ := want.At(i, j, p)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("cell (%s, %s, %d) = %v, want %v", got.RegionName(i), got.ActivityName(j), p, g, w)
				}
			}
		}
	}
}
