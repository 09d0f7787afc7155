package diagnose

import (
	"math"
	"reflect"
	"testing"

	"loadimb/internal/temporal"
)

// FuzzDiagnose drives Diagnose with arbitrary window series shapes —
// including the degenerate all-zero, single-rank and single-phase ones —
// and asserts the report invariants: no panic, every score finite and
// nonnegative, ranks and phase ordinals in range, findings sorted by
// descending score, and cohorts partitioning the rank set of every
// diagnosed phase — and that a Memo reports exactly what Diagnose does.
func FuzzDiagnose(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint16(0), false, false)      // all-zero fingerprints
	f.Add(uint8(1), uint8(6), uint16(0xBEEF), true, true)   // single rank
	f.Add(uint8(8), uint8(1), uint16(0x1234), true, false)  // single window / single phase
	f.Add(uint8(16), uint8(12), uint16(0xCAFE), true, true) // generic shape
	f.Add(uint8(3), uint8(20), uint16(0x00FF), false, true) // regions only
	f.Fuzz(func(t *testing.T, nprocs, nwins uint8, seed uint16, withAct, withReg bool) {
		procs := int(nprocs%32) + 1
		wins := int(nwins % 64)
		// A cheap deterministic generator (xorshift) drives the busy
		// values; the fuzzer explores shape + seed space.
		state := uint32(seed) | 1
		next := func() float64 {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			return float64(state%1000) / 1000.0
		}
		ser := &temporal.Series{Window: 0.5, Procs: procs}
		for w := 0; w < wins; w++ {
			v := temporal.WindowVector{Index: w, Events: 1, ProcSeconds: make([]float64, procs)}
			for p := 0; p < procs; p++ {
				v.ProcSeconds[p] = next() * ser.Window
			}
			if withAct {
				v.PerActivity = map[string][]float64{"compute": make([]float64, procs), "wait": make([]float64, procs)}
				for p := 0; p < procs; p++ {
					split := next()
					v.PerActivity["compute"][p] = v.ProcSeconds[p] * split
					v.PerActivity["wait"][p] = v.ProcSeconds[p] * (1 - split)
				}
			}
			if withReg {
				v.PerRegion = map[string][]float64{"main": append([]float64(nil), v.ProcSeconds...)}
			}
			ser.Windows = append(ser.Windows, v)
		}
		phases := temporal.Segment(ser.Stats(), 0)
		rep := Diagnose(ser, phases, Options{})
		if rep == nil {
			t.Fatal("nil report")
		}
		// A Memo answers exactly what Diagnose answers: on a repeated
		// input, and after the last window's first rank changed.
		var m Memo
		for i := 0; i < 2; i++ {
			if got := m.Diagnose(ser, phases, Options{}); !reflect.DeepEqual(got, rep) {
				t.Fatalf("memo call %d differs from Diagnose", i+1)
			}
		}
		if wins > 0 {
			ser2 := *ser
			ser2.Windows = append([]temporal.WindowVector(nil), ser.Windows...)
			w := &ser2.Windows[wins-1]
			w.ProcSeconds = append([]float64(nil), w.ProcSeconds...)
			w.ProcSeconds[0] += next() * ser.Window
			phases2 := temporal.Segment(ser2.Stats(), 0)
			if got, want := m.Diagnose(&ser2, phases2, Options{}), Diagnose(&ser2, phases2, Options{}); !reflect.DeepEqual(got, want) {
				t.Fatal("memo differs from Diagnose after a window changed")
			}
		}
		if len(rep.Phases) > len(phases) {
			t.Fatalf("%d diagnosed phases for %d segmented", len(rep.Phases), len(phases))
		}
		prev := math.Inf(1)
		for i, fd := range rep.Findings {
			if fd.Rank < 0 || fd.Rank >= procs {
				t.Fatalf("finding %d rank %d out of [0, %d)", i, fd.Rank, procs)
			}
			if fd.Phase < 1 || fd.Phase > len(rep.Phases) {
				t.Fatalf("finding %d phase %d out of range", i, fd.Phase)
			}
			if math.IsNaN(fd.Score) || math.IsInf(fd.Score, 0) || fd.Score < 0 {
				t.Fatalf("finding %d score %v", i, fd.Score)
			}
			if math.IsNaN(fd.Distance) || fd.Distance < 0 {
				t.Fatalf("finding %d distance %v", i, fd.Distance)
			}
			if fd.Score > prev {
				t.Fatalf("findings not sorted: score %g after %g", fd.Score, prev)
			}
			prev = fd.Score
			if fd.CohortSize < 1 || fd.Cohort < 0 {
				t.Fatalf("finding %d cohort ref %d size %d", i, fd.Cohort, fd.CohortSize)
			}
			for _, c := range fd.Dominant {
				if math.IsNaN(c.Delta) || math.IsInf(c.Delta, 0) {
					t.Fatalf("finding %d contribution delta %v", i, c.Delta)
				}
				if c.Percent != nil && (math.IsNaN(*c.Percent) || math.IsInf(*c.Percent, 0)) {
					t.Fatalf("finding %d contribution percent %v", i, *c.Percent)
				}
			}
		}
		for _, pd := range rep.Phases {
			if len(pd.Cohorts) == 0 {
				continue // clustering degraded; no cohort claims made
			}
			seen := make(map[int]bool)
			for _, c := range pd.Cohorts {
				for _, r := range c.Ranks {
					if r < 0 || r >= procs || seen[r] {
						t.Fatalf("phase %d cohorts are not a partition: rank %d", pd.Phase, r)
					}
					seen[r] = true
				}
				if len(c.Centroid) != len(rep.Dimensions) {
					t.Fatalf("phase %d centroid has %d dims, report has %d", pd.Phase, len(c.Centroid), len(rep.Dimensions))
				}
				if math.IsNaN(pd.Scale) || pd.Scale < 0 || math.IsNaN(c.Spread) || c.Spread < 0 {
					t.Fatalf("phase %d scale %v spread %v", pd.Phase, pd.Scale, c.Spread)
				}
			}
			if len(seen) != procs {
				t.Fatalf("phase %d cohorts cover %d of %d ranks", pd.Phase, len(seen), procs)
			}
		}
	})
}
