package main

// The seeded input generator. Every workload draws its inputs from here,
// so the same -seed gives the same event streams and configurations, and
// the program under test sees only the generated events.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"loadimb/internal/trace"
)

// scatterShape ports calculate_work of the syntheticscatter benchmark of
// cluster-dlb-benchmarks: one randomly chosen rank carries the worst load,
// and the rest of the work — enough to make max/mean equal imbalance — is
// scattered uniformly over the other ranks, none exceeding the worst. Cut
// points drawn uniformly on [0, rest] split the rest into pieces; when a
// piece would overfill a rank, every piece is scaled down so the fullest
// rank just reaches the worst load, and the loop scatters what is left
// over the ranks still below it. imbalance is max/mean, in [1, ranks].
func scatterShape(rng *rand.Rand, ranks int, imbalance float64) ([]float64, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("scatter: need at least 2 ranks, got %d", ranks)
	}
	if !(imbalance >= 1 && imbalance <= float64(ranks)) {
		return nil, fmt.Errorf("scatter: imbalance %g not possible on %d ranks (max is %d)", imbalance, ranks, ranks)
	}
	const worst = 500.0
	work := make([]float64, ranks)
	work[rng.Intn(ranks)] = worst
	rest := worst * (float64(ranks)/imbalance - 1)
	cuts := make([]float64, 0, ranks+1)
	for rest > 1e-9*worst {
		var open []int
		for p, w := range work {
			if w < worst {
				open = append(open, p)
			}
		}
		if len(open) == 0 {
			break
		}
		cuts = append(cuts[:0], 0, rest)
		for i := 1; i < len(open); i++ {
			cuts = append(cuts, rng.Float64()*rest)
		}
		sort.Float64s(cuts)
		mult := 1.0
		for k, p := range open {
			piece, slack := cuts[k+1]-cuts[k], worst-work[p]
			if piece >= slack && slack/piece < mult {
				mult = slack / piece
			}
		}
		for k, p := range open {
			add := mult * (cuts[k+1] - cuts[k])
			if work[p]+add >= worst*(1-1e-12) {
				add = worst - work[p]
			}
			work[p] += add
			rest -= add
		}
	}
	return work, nil
}

// rankWork returns per-rank work with mean 1 whose Euclidean ID_P (the
// paper's index over the standardized per-processor totals) equals target
// up to rounding. The scatter shape decides which ranks are heavy and how
// the remainder spreads; its deviation from the balanced share is then
// rescaled to length target.
func rankWork(rng *rand.Rand, ranks int, target float64) ([]float64, error) {
	if !(target >= 0) {
		return nil, fmt.Errorf("rank work: bad target ID_P %g", target)
	}
	shape, err := scatterShape(rng, ranks, 2)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, w := range shape {
		total += w
	}
	p := float64(ranks)
	dev := make([]float64, ranks)
	var norm float64
	for i, w := range shape {
		dev[i] = w/total - 1/p
		norm += dev[i] * dev[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return nil, errors.New("rank work: balanced shape has no direction to scale")
	}
	work := make([]float64, ranks)
	for i, d := range dev {
		share := 1/p + target*d/norm
		if share < 0 {
			return nil, fmt.Errorf("rank work: ID_P %g too large for %d ranks", target, ranks)
		}
		work[i] = p * share
	}
	return work, nil
}

// cell is one (region, activity) pair and the share of a rank's work
// spent in it.
type cell struct {
	region, activity string
	share            float64
}

// randomCells spreads work over every region × activity pair with random
// shares summing to 1.
func randomCells(rng *rand.Rand, regions, activities []string) []cell {
	cells := make([]cell, 0, len(regions)*len(activities))
	var total float64
	for _, r := range regions {
		for _, a := range activities {
			s := 0.5 + rng.Float64()
			cells = append(cells, cell{r, a, s})
			total += s
		}
	}
	for i := range cells {
		cells[i].share /= total
	}
	return cells
}

// appendIteration appends one iteration of an SPMD program: rank
// rankBase+p spends work[p] split over cells, back to back from t0. The
// last cell takes what the others left, so a rank's durations add up to
// its work; with integral work and integral shares of it (integral set)
// every duration is a whole number, and sums of them are exact in any
// order.
func appendIteration(dst []trace.Event, work []float64, cells []cell, rankBase int, t0 float64, integral bool) []trace.Event {
	for p, w := range work {
		t, left := t0, w
		for k, c := range cells {
			d := w * c.share
			if integral {
				d = math.Round(d)
			}
			if k == len(cells)-1 || d > left {
				d = left
			}
			left -= d
			dst = append(dst, trace.Event{Rank: rankBase + p, Region: c.region, Activity: c.activity, Start: t, End: t + d})
			t += d
		}
	}
	return dst
}

// names returns prefix0, prefix1, ...
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}
