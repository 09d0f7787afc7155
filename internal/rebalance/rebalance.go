// Package rebalance closes the measurement loop: it consumes the
// per-rank load vectors the dispersion indices are computed from and
// plans work migrations that drive the processor imbalance ID_P below a
// target.
//
// The package is deliberately mechanism-free. A planner round takes a
// per-rank load vector and produces Moves — "shift this much load from
// rank a to rank b" — in load units (virtual seconds); the workload owns
// the mechanism that turns a Move into migrated work units (AMR cells,
// master-worker tasks, CFD grid rows) at its next phase boundary. Two
// policies decide which vector to plan against: the reactive policy
// replays the classic iterate-until-load-below-target loop (huji-rich
// SetLoad) against the loads just measured, damped because a single
// measurement may be transient; the predictive policy forecasts the next
// phase's loads from the temporal.StreamSegmenter phase trajectory
// (Boulmier et al., "Anticipating Load Imbalance") and pre-migrates the
// full correction before the phase starts.
//
// Simulated workloads run SPMD: every rank reaches the same phase
// boundary with the same allgathered load vector. The Controller
// memoizes each boundary's decision so P identical calls produce one
// plan, recorded once in the stats that the loadimb_rebalance_* metrics
// and /rebalance.json surface.
package rebalance

import (
	"errors"
	"fmt"
	"math"

	"loadimb/internal/stats"
)

// Common errors.
var (
	// ErrBadOptions is returned for invalid rebalancing options.
	ErrBadOptions = errors.New("rebalance: bad options")
	// ErrBadLoads is returned when a load vector contains negative or
	// non-finite entries.
	ErrBadLoads = errors.New("rebalance: bad load vector")
)

// A Move shifts Amount load units (virtual seconds of work) from rank
// From to rank To. The workload converts the amount into its own work
// units — cells, tasks, grid rows — rounding as its granularity demands.
type Move struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Amount float64 `json:"amount"`
}

// A Plan is one round's migration schedule with the imbalance the
// planner expects after it is applied.
type Plan struct {
	// Moves is the migration schedule, hottest pair first. Empty when
	// the input is already at or below target (or nothing can move).
	Moves []Move `json:"moves"`
	// MeasuredID is the ID_P of the load vector the plan was computed
	// from.
	MeasuredID float64 `json:"measured_id"`
	// PlannedID is the ID_P of the load vector after applying Moves —
	// what the next measurement would show if the loads were fully
	// migratable and static.
	PlannedID float64 `json:"planned_id"`
}

// Migrated returns the total load shifted by the plan.
func (p Plan) Migrated() float64 {
	total := 0.0
	for _, m := range p.Moves {
		total += m.Amount
	}
	return total
}

// Options parameterizes the planner and policies.
type Options struct {
	// Target is the ID_P at or below which the load is considered
	// balanced. Default 0.1.
	Target float64
	// Damping is the fraction of each rank-pair's computed excess the
	// reactive policy moves per round, in (0, 1]. Values below 1 hedge
	// against transient measurements at the cost of more rounds.
	// Default 0.5. The predictive policy ignores it and applies the
	// full correction to its forecast.
	Damping float64
}

// maxRounds caps the number of boundaries at which a controller plans
// moves; afterwards it returns empty plans (the SetLoad-style round
// cap).
const maxRounds = 64

// withDefaults fills zero fields with the documented defaults.
func (o Options) withDefaults() Options {
	if o.Target == 0 {
		o.Target = 0.1
	}
	if o.Damping == 0 {
		o.Damping = 0.5
	}
	return o
}

// validate rejects out-of-range and non-finite options. The explicit
// finiteness checks matter: a plain range comparison is false for NaN,
// so a NaN target would otherwise disable convergence silently.
func (o Options) validate() error {
	if !finite(o.Target) || o.Target < 0 {
		return fmt.Errorf("%w: target %g", ErrBadOptions, o.Target)
	}
	if !finite(o.Damping) || o.Damping <= 0 || o.Damping > 1 {
		return fmt.Errorf("%w: damping %g not in (0, 1]", ErrBadOptions, o.Damping)
	}
	return nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// LoadID computes ID_P of a per-rank load vector: the paper's Euclidean
// index of dispersion of the standardized loads. An all-zero vector has
// nothing to disperse and reports 0.
func LoadID(loads []float64) (float64, error) {
	id, err := stats.EuclideanFromBalance(loads)
	if errors.Is(err, stats.ErrZeroSum) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLoads, err)
	}
	return id, nil
}

// checkLoads rejects vectors the planner cannot reason about.
func checkLoads(loads []float64) error {
	if len(loads) == 0 {
		return fmt.Errorf("%w: empty", ErrBadLoads)
	}
	for i, l := range loads {
		if !finite(l) || l < 0 {
			return fmt.Errorf("%w: load[%d] = %g", ErrBadLoads, i, l)
		}
	}
	return nil
}

// PlanMoves computes one round's migration plan for the load vector: it
// repeatedly pairs the hottest rank with the coldest and moves
// damping·min(hot−mean, mean−cold) between them, until the planned
// vector's ID_P has margin below target, no improving move remains, or
// P−1 moves are planned. Because every move shifts at most the smaller of
// the pair's distances from the mean (which moves preserve), each move
// strictly decreases the sum of squared deviations — the planned ID_P is
// always at most the measured one, which is what makes the reactive loop
// monotone-convergent on a static workload.
func PlanMoves(loads []float64, opts Options) (Plan, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Plan{}, err
	}
	if err := checkLoads(loads); err != nil {
		return Plan{}, err
	}
	measured, err := LoadID(loads)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{MeasuredID: measured, PlannedID: measured}
	if measured <= opts.Target || len(loads) < 2 {
		return plan, nil
	}
	l := append([]float64(nil), loads...)
	mean := stats.Mean(l)
	// Plan to margin below target (not to exact balance): migration has
	// real cost, and workloads whose units move at different effective
	// rates (a straggler's seconds are cheaper elsewhere) land near —
	// not exactly on — the planned vector.
	stopAt := opts.Target / 2
	for len(plan.Moves) < len(loads)-1 {
		hot, cold := 0, 0
		for i, v := range l {
			if v > l[hot] {
				hot = i
			}
			if v < l[cold] {
				cold = i
			}
		}
		amt := opts.Damping * math.Min(l[hot]-mean, mean-l[cold])
		if amt <= 0 {
			break
		}
		l[hot] -= amt
		l[cold] += amt
		plan.Moves = append(plan.Moves, Move{From: hot, To: cold, Amount: amt})
		if plan.PlannedID, err = LoadID(l); err != nil {
			return Plan{}, err
		}
		if plan.PlannedID <= stopAt {
			break
		}
	}
	return plan, nil
}
