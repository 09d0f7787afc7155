package temporal

import (
	"math"
	"sort"
)

// Phase labels returned by Segment.
const (
	// LabelIdle marks a phase whose windows recorded no busy time.
	LabelIdle = "idle"
	// LabelQuiet marks a phase whose mean ID is below the trajectory
	// mean — the balanced stretches of the run.
	LabelQuiet = "quiet"
	// LabelHot marks a phase whose mean ID is at or above the
	// trajectory mean — the stretches the whole-run indices dilute.
	LabelHot = "hot"
)

// Phase is one segment of a trajectory: a maximal run of windows whose
// imbalance level is homogeneous under the penalized change-point fit.
type Phase struct {
	// FirstWindow and LastWindow are the window indices of the phase's
	// first and last member windows (inclusive).
	FirstWindow, LastWindow int
	// Start and End are the phase's virtual-time bounds: the start of
	// the first member window and the end of the last.
	Start, End float64
	// Windows is the number of non-empty member windows.
	Windows int
	// MeanID is the mean of the member windows' IDs; windows with an
	// undefined (all-idle) ID count as zero.
	MeanID float64
	// Label classifies the phase relative to the whole trajectory:
	// LabelIdle, LabelQuiet or LabelHot.
	Label string
}

// Segment groups a trajectory's windows into phases with PELT-style
// change-point detection (Killick, Fearnhead, Eckley 2012): it minimizes
// the sum over segments of the within-segment squared deviation of the
// ID values from the segment mean, plus penalty per change point, with
// the pruned dynamic program that makes the exact optimum effectively
// linear-time while change points keep occurring; a trajectory with
// none prunes nothing and costs O(n²). A penalty <= 0 selects a
// BIC-style default, 2·σ̂²·log n, with σ̂² estimated from the first
// differences of the trajectory so slow trends do not inflate it.
//
// Windows with a null ID enter the cost as zero — an idle window is its
// own regime, and the segmentation separates it just like any other
// level shift. The stats slice must be in ascending window order (as
// Series.Stats returns it); gaps between non-empty windows are allowed
// and stay interior to whichever phase spans them.
func Segment(stats []WindowStat, penalty float64) []Phase {
	n := len(stats)
	if n == 0 {
		return nil
	}
	x := make([]float64, n)
	for i, w := range stats {
		if w.ID != nil {
			x[i] = *w.ID
		}
	}
	return phasesFromBounds(stats, x, pelt(x, penalty))
}

// phasesFromBounds turns a segmentation's exclusive end positions into
// labeled phases. The hot/quiet threshold is the mean ID over the
// windows whose ID is defined: an all-idle window has no load to
// disperse, and averaging it in as zero would deflate the threshold on
// idle-heavy runs until balanced stretches read as hot.
func phasesFromBounds(stats []WindowStat, x []float64, bounds []int) []Phase {
	overall, defined := 0.0, 0
	for i, w := range stats {
		if w.ID != nil {
			overall += x[i]
			defined++
		}
	}
	if defined > 0 {
		overall /= float64(defined)
	}
	phases := make([]Phase, 0, len(bounds))
	prev := 0
	for _, b := range bounds {
		ph := Phase{
			FirstWindow: stats[prev].Index,
			LastWindow:  stats[b-1].Index,
			Start:       stats[prev].Start,
			End:         stats[b-1].End,
			Windows:     b - prev,
		}
		idle := true
		for i := prev; i < b; i++ {
			ph.MeanID += x[i]
			if stats[i].Busy > 0 {
				idle = false
			}
		}
		ph.MeanID /= float64(ph.Windows)
		switch {
		case idle:
			ph.Label = LabelIdle
		case ph.MeanID >= overall && ph.MeanID > 0:
			ph.Label = LabelHot
		default:
			ph.Label = LabelQuiet
		}
		phases = append(phases, ph)
		prev = b
	}
	return phases
}

// pelt returns the exclusive end positions of the optimal segments of x
// under an L2 cost with the given per-change-point penalty.
func pelt(x []float64, penalty float64) []int {
	n := len(x)
	// Prefix sums make any segment's squared-deviation cost O(1).
	s1 := make([]float64, n+1)
	s2 := make([]float64, n+1)
	for i, v := range x {
		s1[i+1] = s1[i] + v
		s2[i+1] = s2[i] + v*v
	}
	cost := func(a, b int) float64 {
		m := float64(b - a)
		d := s1[b] - s1[a]
		c := s2[b] - s2[a] - d*d/m
		if c < 0 {
			return 0 // cancellation noise on constant stretches
		}
		return c
	}
	beta := penalty
	if beta <= 0 {
		beta = defaultPenalty(x, s1[n], s2[n])
	}
	// F[t] is the optimal penalized cost of x[:t]; cands holds the
	// change-point candidates PELT has not pruned.
	f := make([]float64, n+1)
	last := make([]int, n+1)
	f[0] = -beta
	cands := make([]int, 1, n+1)
	for t := 1; t <= n; t++ {
		best, arg := math.Inf(1), 0
		for _, s := range cands {
			if v := f[s] + cost(s, t) + beta; v < best {
				best, arg = v, s
			}
		}
		f[t] = best
		last[t] = arg
		keep := cands[:0]
		for _, s := range cands {
			// Standard PELT pruning: a candidate whose cost already
			// exceeds the optimum can never participate in a future
			// optimum (the L2 cost is concatenation-subadditive).
			if f[s]+cost(s, t) <= f[t] {
				keep = append(keep, s)
			}
		}
		cands = append(keep, t)
	}
	var bounds []int
	for t := n; t > 0; t = last[t] {
		bounds = append(bounds, t)
	}
	sort.Ints(bounds)
	return bounds
}

// varPenaltyFraction scales the variance-based penalty floor used when
// the median absolute difference is zero. In that regime the signal is
// piecewise constant, a k-cut segmentation fits it exactly, and the
// split-vs-merge decision reduces to k·c ≶ n (gain n·var against cost
// k·c·var): noise blips of density ρ need ~2ρn cuts and are absorbed
// when c > 1/(2ρ), while genuine level shifts need only one cut per
// regime and split whenever regimes average more than c windows. c = 4
// absorbs blips down to ~12% density and still resolves phases as short
// as a handful of windows.
const varPenaltyFraction = 4.0

// defaultPenalty is the BIC-style 2·σ̂²·log n with the noise variance
// estimated from first differences: under a piecewise-constant signal
// the differences are pure noise (variance 2σ²) except at the few
// change points, which the median absolute difference shrugs off.
//
// When the median absolute difference is zero — any trajectory where
// more than half the windows repeat their neighbour's value, common for
// constant or idle-heavy stretches — the MAD estimate degenerates and a
// near-zero penalty would cut a phase at every noise blip. The fallback
// is a scale-aware floor, a fraction of the trajectory's variance,
// computed from the DP's own prefix sums s1n = Σx and s2n = Σx².
func defaultPenalty(x []float64, s1n, s2n float64) float64 {
	n := len(x)
	if n < 2 {
		return 1e-12
	}
	diffs := make([]float64, n-1)
	for i := 1; i < n; i++ {
		diffs[i-1] = math.Abs(x[i] - x[i-1])
	}
	sort.Float64s(diffs)
	mad := diffs[len(diffs)/2]
	if mad > 0 {
		// σ ≈ MAD / (Φ⁻¹(3/4)·√2) for Gaussian differences.
		sigma := mad / (0.6744897501960817 * math.Sqrt2)
		if beta := 2 * sigma * sigma * math.Log(float64(n)); beta > 0 {
			return beta
		}
		return 1e-12
	}
	variance := (s2n - s1n*s1n/float64(n)) / float64(n)
	if beta := varPenaltyFraction * variance; beta > 0 {
		return beta
	}
	return 1e-12
}
