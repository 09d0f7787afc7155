package rebalance

import (
	"fmt"
	"sync"
)

// RoundStat records one phase boundary's decision.
type RoundStat struct {
	// Boundary is the phase-boundary index the decision was made at.
	Boundary int `json:"boundary"`
	// MeasuredID is the ID_P of the loads measured over the phase that
	// just ended.
	MeasuredID float64 `json:"measured_id"`
	// PlannedID is the ID_P the planner expects after the moves.
	PlannedID float64 `json:"planned_id"`
	// Moves is the number of migrations planned.
	Moves int `json:"moves"`
	// Migrated is the total load shifted, in virtual seconds.
	Migrated float64 `json:"migrated"`
}

// Stats is a snapshot of a controller's progress, the source of the
// loadimb_rebalance_* metrics and /rebalance.json.
type Stats struct {
	// Policy is the active policy's name.
	Policy string `json:"policy"`
	// Target is the ID_P the controller drives toward.
	Target float64 `json:"target"`
	// Boundaries is the number of phase boundaries decided.
	Boundaries int `json:"boundaries"`
	// Rounds is the number of boundaries at which moves were planned —
	// the SetLoad-style iteration count.
	Rounds int `json:"rounds"`
	// Migrations is the total number of moves across all rounds.
	Migrations int `json:"migrations"`
	// Migrated is the total load shifted, in virtual seconds.
	Migrated float64 `json:"migrated"`
	// AchievedID is the most recent measured ID_P.
	AchievedID float64 `json:"achieved_id"`
	// RoundsToTarget is the number of planning rounds that had happened
	// when the measured ID_P first reached the target, or -1 while it
	// never has.
	RoundsToTarget int `json:"rounds_to_target"`
	// Converged reports whether the measured ID_P has reached the
	// target at least once.
	Converged bool `json:"converged"`
	// History lists every boundary's decision in order.
	History []RoundStat `json:"history"`
}

// A Controller runs one policy over a workload's phase boundaries. The
// simulated workloads are SPMD — every rank reaches a boundary with the
// identical allgathered load vector — so Decide memoizes per boundary:
// the first caller computes and records the plan, the other P-1 get the
// same plan back, and the stats count the round once.
type Controller struct {
	mu     sync.Mutex
	policy Policy
	opts   Options
	memo   map[int]decision
	stats  Stats
}

type decision struct {
	plan Plan
	err  error
}

// New creates a controller running the named policy (PolicyReactive or
// PolicyPredictive) — the form the -rebalance flags use.
func New(policy string, opts Options) (*Controller, error) {
	var p Policy
	var err error
	switch policy {
	case PolicyReactive:
		p, err = NewReactive(opts)
	case PolicyPredictive:
		p, err = NewPredictive(opts)
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", ErrBadOptions, policy)
	}
	if err != nil {
		return nil, err
	}
	return NewController(p, opts)
}

// NewController creates a controller running the given policy.
func NewController(p Policy, opts Options) (*Controller, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Controller{
		policy: p,
		opts:   opts,
		memo:   make(map[int]decision),
		stats: Stats{
			Policy:         p.Name(),
			Target:         opts.Target,
			RoundsToTarget: -1,
		},
	}, nil
}

// Target returns the configured ID_P target.
func (c *Controller) Target() float64 { return c.opts.Target }

// Decide returns the migration plan for the phase boundary, computing it
// on the first call and replaying it to the boundary's other SPMD
// callers. measured is the allgathered per-rank load vector of the phase
// that just ended; every caller for one boundary must pass the same
// vector.
func (c *Controller) Decide(boundary int, measured []float64) (Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.memo[boundary]; ok {
		return d.plan, d.err
	}
	plan, err := c.decideLocked(boundary, measured)
	c.memo[boundary] = decision{plan: plan, err: err}
	return plan, err
}

func (c *Controller) decideLocked(boundary int, measured []float64) (Plan, error) {
	if c.stats.Rounds >= maxRounds {
		// Round cap hit: stop planning, keep recording the measurements.
		id, err := LoadID(measured)
		if err != nil {
			return Plan{}, err
		}
		plan := Plan{MeasuredID: id, PlannedID: id}
		c.recordLocked(boundary, plan)
		return plan, nil
	}
	plan, err := c.policy.Plan(boundary, measured)
	if err != nil {
		return Plan{}, err
	}
	c.recordLocked(boundary, plan)
	return plan, nil
}

func (c *Controller) recordLocked(boundary int, plan Plan) {
	c.stats.Boundaries++
	c.stats.AchievedID = plan.MeasuredID
	// Convergence is judged before counting this boundary's plan: the
	// measurement reflects the phase that already ran, so the rounds
	// that produced it are the ones planned at earlier boundaries.
	if !c.stats.Converged && plan.MeasuredID <= c.opts.Target {
		c.stats.Converged = true
		c.stats.RoundsToTarget = c.stats.Rounds
	}
	if len(plan.Moves) > 0 {
		c.stats.Rounds++
		c.stats.Migrations += len(plan.Moves)
		c.stats.Migrated += plan.Migrated()
	}
	c.stats.History = append(c.stats.History, RoundStat{
		Boundary:   boundary,
		MeasuredID: plan.MeasuredID,
		PlannedID:  plan.PlannedID,
		Moves:      len(plan.Moves),
		Migrated:   plan.Migrated(),
	})
}

// Snapshot returns a copy of the controller's stats; safe to call
// concurrently with Decide.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.History = append([]RoundStat(nil), c.stats.History...)
	return s
}
