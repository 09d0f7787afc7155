package rebalance

import (
	"loadimb/internal/temporal"
)

// Policy names, as accepted by New and the -rebalance flags.
const (
	PolicyReactive   = "reactive"
	PolicyPredictive = "predictive"
)

// A Policy turns the measured per-rank loads of the phase that just
// ended into the migration plan to apply before the next phase begins.
// A Policy is not concurrency-safe; the Controller serializes calls.
type Policy interface {
	// Name identifies the policy in stats and metrics.
	Name() string
	// Plan produces the round's migration plan. boundary is the index
	// of the phase boundary (0 after the first phase), measured the
	// allgathered per-rank loads of the finished phase.
	Plan(boundary int, measured []float64) (Plan, error)
}

// Reactive is the SetLoad-style feedback loop: plan against the loads
// just measured, damped, and let the next measurement correct the
// residual. It needs no model of the workload, but pays for that in
// rounds — each one recovers only Damping of the remaining excess.
type Reactive struct {
	opts Options
}

// NewReactive creates the reactive policy.
func NewReactive(opts Options) (*Reactive, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Reactive{opts: opts}, nil
}

// Name returns "reactive".
func (r *Reactive) Name() string { return PolicyReactive }

// Plan plans against the measured loads with the configured damping.
func (r *Reactive) Plan(_ int, measured []float64) (Plan, error) {
	return PlanMoves(measured, r.opts)
}

// Predictive forecasts the next phase's per-rank loads from the phase
// trajectory and pre-migrates the full correction. The forecaster records
// each boundary's measurement as one window of an ID trajectory;
// temporal.Segment's change-point fit groups boundaries into regimes,
// and the forecast for the next phase is the fingerprint (mean per-rank
// load share) of the current regime's windows, pooled with the most
// recent earlier regime carrying the same label when one exists — so a
// recurring phase is anticipated from its last occurrence the moment
// the regime flips. Because the forecast is
// regime-averaged rather than a single possibly-transient measurement,
// the policy applies it undamped; when nothing has been observed yet it
// falls back to the damped reactive plan.
type Predictive struct {
	opts Options
	f    *Forecaster
}

// NewPredictive creates the predictive policy.
func NewPredictive(opts Options) (*Predictive, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Predictive{opts: opts, f: NewForecaster()}, nil
}

// Name returns "predictive".
func (p *Predictive) Name() string { return PolicyPredictive }

// Plan observes the measurement and plans the full correction against
// the forecast next-phase loads.
func (p *Predictive) Plan(_ int, measured []float64) (Plan, error) {
	p.f.Observe(measured)
	forecast, ok := p.f.Forecast()
	if !ok {
		return PlanMoves(measured, p.opts)
	}
	full := p.opts
	full.Damping = 1
	plan, err := PlanMoves(forecast, full)
	if err != nil {
		return Plan{}, err
	}
	// Report the real measurement, not the forecast's: the controller
	// tracks convergence of what actually happened.
	if plan.MeasuredID, err = LoadID(measured); err != nil {
		return Plan{}, err
	}
	if len(plan.Moves) > 0 {
		p.f.MarkMigration()
	}
	return plan, nil
}

// A Forecaster accumulates per-boundary load measurements and predicts
// the next phase's per-rank loads from the segmented trajectory.
type Forecaster struct {
	stats  []temporal.WindowStat // per boundary: one window, Busy the total load
	shares [][]float64           // per boundary: normalized per-rank load shares (nil for all-idle)
	// epoch is the first window index measured after the last applied
	// migration. Earlier windows describe a different work ownership and
	// would poison the fingerprint — a share vector from before a
	// migration predicts loads that the migration already changed.
	epoch int
}

// NewForecaster creates an empty forecaster; it segments with the
// automatic change-point penalty.
func NewForecaster() *Forecaster { return &Forecaster{} }

// Observe feeds one boundary's measured per-rank loads.
func (f *Forecaster) Observe(measured []float64) {
	n := len(f.stats)
	total := 0.0
	for _, l := range measured {
		total += l
	}
	w := temporal.WindowStat{
		Index:  n,
		Start:  float64(n),
		End:    float64(n + 1),
		Events: len(measured),
		Busy:   total,
	}
	var share []float64
	if total > 0 {
		id, err := LoadID(measured)
		if err == nil {
			w.ID = &id
		}
		share = make([]float64, len(measured))
		for i, l := range measured {
			share[i] = l / total
		}
	}
	f.stats = append(f.stats, w)
	f.shares = append(f.shares, share)
}

// MarkMigration records that the plan just produced will be applied:
// windows observed before this point describe the old work ownership
// and are excluded from future fingerprints.
func (f *Forecaster) MarkMigration() { f.epoch = len(f.stats) }

// Forecast predicts the next phase's per-rank loads: the pooled mean
// share vector of the current regime (and its last same-labeled
// predecessor, if any) scaled by the most recent total load, considering
// only windows from the current ownership epoch. ok is false while no
// usable measurement has been observed.
func (f *Forecaster) Forecast() ([]float64, bool) {
	phases := temporal.Segment(f.stats, 0)
	if len(phases) == 0 {
		return nil, false
	}
	cur := phases[len(phases)-1]
	pool := [][2]int{{cur.FirstWindow, cur.LastWindow}}
	for j := len(phases) - 2; j >= 0; j-- {
		if phases[j].Label == cur.Label {
			pool = append(pool, [2]int{phases[j].FirstWindow, phases[j].LastWindow})
			break
		}
	}
	var sum []float64
	windows := 0
	for _, span := range pool {
		for i := span[0]; i <= span[1] && i < len(f.shares); i++ {
			s := f.shares[i]
			if s == nil || i < f.epoch {
				continue
			}
			if sum == nil {
				sum = make([]float64, len(s))
			}
			for r, v := range s {
				sum[r] += v
			}
			windows++
		}
	}
	if windows == 0 {
		return nil, false
	}
	scale := f.stats[len(f.stats)-1].Busy / float64(windows)
	if scale <= 0 {
		scale = 1 / float64(windows)
	}
	for r := range sum {
		sum[r] *= scale
	}
	return sum, true
}
