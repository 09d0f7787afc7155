package temporal

import (
	"math"
	"testing"
)

// statsFromIDs builds a WindowStat trajectory with the given ID values
// in consecutive unit windows; a NaN marks an all-idle window (null ID,
// zero busy).
func statsFromIDs(ids []float64) []WindowStat {
	out := make([]WindowStat, 0, len(ids))
	for i, v := range ids {
		w := WindowStat{Index: i, Start: float64(i), End: float64(i + 1), Events: 1, Busy: 1}
		if math.IsNaN(v) {
			w.Busy = 0
		} else {
			id := v
			w.ID = &id
		}
		out = append(out, w)
	}
	return out
}

func TestSegmentConstantTrajectoryIsOnePhase(t *testing.T) {
	ids := make([]float64, 40)
	for i := range ids {
		ids[i] = 0.25
	}
	phases := Segment(statsFromIDs(ids), 0)
	if len(phases) != 1 {
		t.Fatalf("%d phases, want 1: %+v", len(phases), phases)
	}
	ph := phases[0]
	if ph.FirstWindow != 0 || ph.LastWindow != 39 || ph.Windows != 40 {
		t.Errorf("phase bounds = %+v", ph)
	}
	if ph.Start != 0 || ph.End != 40 {
		t.Errorf("phase time bounds [%g, %g), want [0, 40)", ph.Start, ph.End)
	}
	if math.Abs(ph.MeanID-0.25) > 1e-12 {
		t.Errorf("mean ID = %g, want 0.25", ph.MeanID)
	}
	// A one-phase trajectory's phase sits exactly at the overall mean.
	if ph.Label != LabelHot {
		t.Errorf("label = %q, want %q", ph.Label, LabelHot)
	}
}

func TestSegmentRecoversPiecewiseConstantLevels(t *testing.T) {
	// Three clean regimes with mild deterministic ripple: balanced,
	// imbalanced, balanced again — the alternation the AMR workload
	// shows between bulk phases and refinement tails.
	var ids []float64
	ripple := []float64{0.003, -0.002, 0.001, -0.003, 0.002}
	addLevel := func(level float64, n int) {
		for i := 0; i < n; i++ {
			ids = append(ids, level+ripple[i%len(ripple)])
		}
	}
	addLevel(0.05, 15)
	addLevel(0.60, 10)
	addLevel(0.08, 15)
	phases := Segment(statsFromIDs(ids), 0)
	if len(phases) != 3 {
		t.Fatalf("%d phases, want 3: %+v", len(phases), phases)
	}
	wantFirst := []int{0, 15, 25}
	wantLast := []int{14, 24, 39}
	wantLabel := []string{LabelQuiet, LabelHot, LabelQuiet}
	wantMean := []float64{0.05, 0.60, 0.08}
	for i, ph := range phases {
		if ph.FirstWindow != wantFirst[i] || ph.LastWindow != wantLast[i] {
			t.Errorf("phase %d = windows [%d, %d], want [%d, %d]",
				i, ph.FirstWindow, ph.LastWindow, wantFirst[i], wantLast[i])
		}
		if ph.Label != wantLabel[i] {
			t.Errorf("phase %d label = %q, want %q", i, ph.Label, wantLabel[i])
		}
		if math.Abs(ph.MeanID-wantMean[i]) > 0.01 {
			t.Errorf("phase %d mean ID = %g, want ~%g", i, ph.MeanID, wantMean[i])
		}
	}
}

func TestSegmentExplicitPenaltySuppressesSplits(t *testing.T) {
	var ids []float64
	for i := 0; i < 10; i++ {
		ids = append(ids, 0.1)
	}
	for i := 0; i < 10; i++ {
		ids = append(ids, 0.5)
	}
	// The auto penalty splits the level shift…
	if got := len(Segment(statsFromIDs(ids), 0)); got != 2 {
		t.Errorf("auto penalty: %d phases, want 2", got)
	}
	// …a huge explicit penalty forbids any change point.
	if got := len(Segment(statsFromIDs(ids), 1e6)); got != 1 {
		t.Errorf("penalty 1e6: %d phases, want 1", got)
	}
}

func TestSegmentLabelsIdlePhases(t *testing.T) {
	nan := math.NaN()
	ids := []float64{0.3, 0.3, 0.3, 0.3, nan, nan, nan, nan, 0.3, 0.3, 0.3, 0.3}
	phases := Segment(statsFromIDs(ids), 0)
	if len(phases) != 3 {
		t.Fatalf("%d phases, want 3: %+v", len(phases), phases)
	}
	if phases[1].Label != LabelIdle {
		t.Errorf("middle phase label = %q, want %q", phases[1].Label, LabelIdle)
	}
	if phases[1].MeanID != 0 {
		t.Errorf("idle phase mean ID = %g, want 0", phases[1].MeanID)
	}
	if phases[0].Label != LabelHot || phases[2].Label != LabelHot {
		t.Errorf("busy phase labels = %q, %q, want %q", phases[0].Label, phases[2].Label, LabelHot)
	}
}

// TestSegmentMostlyConstantAbsorbsBlips is the defaultPenalty
// degeneracy regression: a trajectory where most windows repeat their
// neighbour's value has a zero median absolute difference, and the old
// fallback penalty of 1e-12 cut a phase at every blip — this trajectory
// exploded into a phase per blip. The variance-scaled floor absorbs
// the blips: one phase.
func TestSegmentMostlyConstantAbsorbsBlips(t *testing.T) {
	ids := make([]float64, 30)
	for i := range ids {
		ids[i] = 0.2
		if i%5 == 4 && i < 28 {
			ids[i] = 0.21 // isolated measurement blip, not a regime
		}
	}
	phases := Segment(statsFromIDs(ids), 0)
	if len(phases) != 1 {
		t.Fatalf("%d phases, want 1: %+v", len(phases), phases)
	}
	// The floor is a fraction of the variance, not an absolute value:
	// genuine level shifts in the same zero-MAD regime must still split.
	shift := make([]float64, 24)
	for i := range shift {
		shift[i] = 0.2
		if i >= 12 {
			shift[i] = 0.5
		}
	}
	if got := len(Segment(statsFromIDs(shift), 0)); got != 2 {
		t.Errorf("clean level shift: %d phases, want 2", got)
	}
}

// TestSegmentIdleHeavyHotTail is the hot/quiet-threshold regression:
// all-idle windows used to enter the trajectory mean as zeros, deflating
// the threshold until every busy phase of an idle-heavy run read as
// "hot". The threshold is now the mean over defined-ID windows only, so
// a genuinely balanced stretch after a long idle gap stays quiet and
// only the truly elevated tail is hot.
func TestSegmentIdleHeavyHotTail(t *testing.T) {
	nan := math.NaN()
	var ids []float64
	for i := 0; i < 20; i++ {
		ids = append(ids, nan)
	}
	for i := 0; i < 10; i++ {
		ids = append(ids, 0.2)
	}
	for i := 0; i < 10; i++ {
		ids = append(ids, 0.4)
	}
	phases := Segment(statsFromIDs(ids), 0)
	if len(phases) != 3 {
		t.Fatalf("%d phases, want 3: %+v", len(phases), phases)
	}
	wantLabels := []string{LabelIdle, LabelQuiet, LabelHot}
	for i, ph := range phases {
		if ph.Label != wantLabels[i] {
			// Pre-fix the threshold was (10·0.2+10·0.4)/40 = 0.15 and the
			// 0.2 stretch came out hot.
			t.Errorf("phase %d label = %q, want %q (%+v)", i, ph.Label, wantLabels[i], ph)
		}
	}
}

func TestSegmentEmptyAndSingle(t *testing.T) {
	if got := Segment(nil, 0); got != nil {
		t.Errorf("Segment(nil) = %+v, want nil", got)
	}
	phases := Segment(statsFromIDs([]float64{0.4}), 0)
	if len(phases) != 1 {
		t.Fatalf("%d phases, want 1", len(phases))
	}
	if phases[0].Windows != 1 || phases[0].MeanID != 0.4 {
		t.Errorf("phase = %+v", phases[0])
	}
}

// TestSegmentOptimalityBruteForce checks pelt against an exhaustive
// search over all segmentations of short trajectories: PELT's pruning
// must never change the optimum, only skip work.
func TestSegmentOptimalityBruteForce(t *testing.T) {
	cases := [][]float64{
		{0.1, 0.1, 0.9, 0.9, 0.1},
		{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		{0, 1, 0, 1, 0, 1},
		{0.2, 0.21, 0.19, 0.8, 0.82, 0.78, 0.2, 0.18},
	}
	for _, x := range cases {
		for _, beta := range []float64{0.001, 0.01, 0.1, 1} {
			got := peltCost(x, pelt(x, beta), beta)
			best := math.Inf(1)
			n := len(x)
			// Enumerate segmentations as bitmasks of interior boundaries.
			for mask := 0; mask < 1<<(n-1); mask++ {
				var bounds []int
				for i := 0; i < n-1; i++ {
					if mask&(1<<i) != 0 {
						bounds = append(bounds, i+1)
					}
				}
				bounds = append(bounds, n)
				if c := peltCost(x, bounds, beta); c < best {
					best = c
				}
			}
			if math.Abs(got-best) > 1e-9 {
				t.Errorf("x=%v beta=%g: pelt cost %g, brute force %g", x, beta, got, best)
			}
		}
	}
}

// peltCost evaluates a segmentation's penalized cost under the same L2
// objective pelt minimizes.
func peltCost(x []float64, bounds []int, beta float64) float64 {
	total := 0.0
	prev := 0
	for _, b := range bounds {
		mean := 0.0
		for i := prev; i < b; i++ {
			mean += x[i]
		}
		mean /= float64(b - prev)
		for i := prev; i < b; i++ {
			d := x[i] - mean
			total += d * d
		}
		total += beta
		prev = b
	}
	return total - beta // pelt charges beta per change point, not per segment
}

// workloadTrajectory is a workload-shaped trajectory: quiet ramp-up with
// ripple, a hot plateau, an idle gap (NaN = all-idle window), and a
// quiet tail.
func workloadTrajectory() []float64 {
	nan := math.NaN()
	var ids []float64
	ripple := []float64{0.004, -0.003, 0.001, -0.002, 0.005}
	for i := 0; i < 12; i++ {
		ids = append(ids, 0.07+ripple[i%len(ripple)])
	}
	for i := 0; i < 9; i++ {
		ids = append(ids, 0.55+ripple[(i+2)%len(ripple)])
	}
	ids = append(ids, nan, nan, nan)
	for i := 0; i < 10; i++ {
		ids = append(ids, 0.12+ripple[i%len(ripple)])
	}
	return ids
}

// unprunedDP is the O(n²) dynamic program PELT prunes: the same
// prefix-sum cost and the same penalty, automatic included, with every
// earlier position kept as a change-point candidate. It returns the
// optimal penalized cost of x, the penalty it used, the cost function
// (so a caller can price another segmentation the same way) and Σx².
func unprunedDP(x []float64, penalty float64) (opt, beta float64, cost func(a, b int) float64, s2n float64) {
	n := len(x)
	s1 := make([]float64, n+1)
	s2 := make([]float64, n+1)
	for i, v := range x {
		s1[i+1] = s1[i] + v
		s2[i+1] = s2[i] + v*v
	}
	cost = func(a, b int) float64 {
		m := float64(b - a)
		d := s1[b] - s1[a]
		c := s2[b] - s2[a] - d*d/m
		if c < 0 {
			return 0
		}
		return c
	}
	beta = penalty
	if beta <= 0 {
		beta = defaultPenalty(x, s1[n], s2[n])
	}
	f := make([]float64, n+1)
	f[0] = -beta
	for t := 1; t <= n; t++ {
		f[t] = math.Inf(1)
		for s := 0; s < t; s++ {
			f[t] = math.Min(f[t], f[s]+cost(s, t)+beta)
		}
	}
	return f[n], beta, cost, s2[n]
}

// checkSegmentOptimal asserts that Segment's phases partition stats in
// order and that their penalized cost is the unpruned optimum: PELT's
// pruning may skip work but never change the optimum.
func checkSegmentOptimal(t *testing.T, stats []WindowStat, penalty float64) {
	t.Helper()
	x := make([]float64, len(stats))
	for i, w := range stats {
		if w.ID != nil {
			x[i] = *w.ID
		}
	}
	phases := Segment(stats, penalty)
	want, beta, cost, s2n := unprunedDP(x, penalty)
	got, pos := -beta, 0
	for k, ph := range phases {
		if ph.Windows < 1 || pos+ph.Windows > len(stats) {
			t.Fatalf("penalty %g n %d: phase %d of %+v does not fit", penalty, len(stats), k, phases)
		}
		first, last := stats[pos], stats[pos+ph.Windows-1]
		if ph.FirstWindow != first.Index || ph.LastWindow != last.Index || ph.Start != first.Start || ph.End != last.End {
			t.Fatalf("penalty %g n %d: phase %d = %+v, windows %d..%d", penalty, len(stats), k, ph, pos, pos+ph.Windows-1)
		}
		got += cost(pos, pos+ph.Windows) + beta
		pos += ph.Windows
	}
	if pos != len(stats) {
		t.Fatalf("penalty %g: phases cover %d of %d windows: %+v", penalty, pos, len(stats), phases)
	}
	// Relative to the larger of the optimum and Σx², which bounds every
	// segment cost: an optimum near zero is a cancellation, not a scale.
	if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), s2n) {
		t.Fatalf("penalty %g x %v: Segment's partition costs %g, unpruned optimum %g", penalty, x, got, want)
	}
}

// TestSegmentOptimalOnEveryPrefix: on every prefix of a workload-shaped
// trajectory, under the automatic and two explicit penalties, Segment
// finds the unpruned optimum — what a live scrape segments at each
// generation.
func TestSegmentOptimalOnEveryPrefix(t *testing.T) {
	stats := statsFromIDs(workloadTrajectory())
	for _, penalty := range []float64{0, 0.05, 1e-6} {
		for i := range stats {
			checkSegmentOptimal(t, stats[:i+1], penalty)
		}
	}
}

// FuzzSegment fuzzes Segment against the unpruned DP: an arbitrary byte
// string decodes into a trajectory (values, idle windows, and a penalty
// selector) whose segmentation must partition the windows and reach the
// unpruned optimum.
func FuzzSegment(f *testing.F) {
	f.Add([]byte{0x10, 0x80, 0xFF, 0x00, 0x42})
	f.Add([]byte{0x00, 0x00, 0x00, 0xF0, 0xF0, 0xF0, 0x00, 0x00})
	f.Add([]byte{0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0x13})
	// A ramp, on which pruning more than PELT's rule allows loses the optimum.
	f.Add([]byte{0x00, 0x00, 0x20, 0x41, 0x62})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 96 {
			t.Skip()
		}
		// First byte selects the penalty; the rest are windows. 0xFF
		// marks an all-idle window, anything else an ID in [0, 1).
		penalty := 0.0
		if data[0]%3 == 1 {
			penalty = float64(data[0]) / 256
		}
		ids := make([]float64, 0, len(data)-1)
		for _, b := range data[1:] {
			if b == 0xFF {
				ids = append(ids, math.NaN())
			} else {
				ids = append(ids, float64(b)/256)
			}
		}
		if len(ids) == 0 {
			t.Skip()
		}
		checkSegmentOptimal(t, statsFromIDs(ids), penalty)
	})
}
