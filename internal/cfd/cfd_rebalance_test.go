package cfd

import (
	"math"
	"testing"

	"loadimb/internal/core"
	"loadimb/internal/rebalance"
)

// stragglerCFD is the solver's straggler scenario: rank 5 computes four
// times slower in every loop.
func stragglerCFD() Config {
	cfg := fastConfig()
	cfg.GridY = 128
	cfg.Iterations = 12
	cfg.SlowRank = 5
	cfg.SlowFactor = 4
	return cfg
}

// noopRebalancer measures but never moves: the adaptive-mode baseline.
type noopRebalancer struct{}

func (noopRebalancer) Decide(boundary int, loads []float64) (rebalance.Plan, error) {
	id, err := rebalance.LoadID(loads)
	if err != nil {
		return rebalance.Plan{}, err
	}
	return rebalance.Plan{MeasuredID: id, PlannedID: id}, nil
}

func TestConfigValidationNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nan imbalance", func(c *Config) { c.Imbalance = nan }},
		{"nan warmup", func(c *Config) { c.InitWarmup = nan }},
		{"inf warmup", func(c *Config) { c.InitWarmup = math.Inf(1) }},
		{"nan slow factor", func(c *Config) { c.SlowFactor = nan }},
		{"nan loop compute", func(c *Config) {
			c.Loops = DefaultLoops()
			c.Loops[2].ComputePerIter = nan
		}},
		{"negative loop bytes", func(c *Config) {
			c.Loops = DefaultLoops()
			c.Loops[1].CollectiveBytes = -1
		}},
	}
	for _, c := range cases {
		cfg := fastConfig()
		c.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCFDRebalanceConverges(t *testing.T) {
	cfg := stragglerCFD()
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = ctrl
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ctrl.Snapshot()
	if !s.Converged {
		t.Fatalf("never reached target: %+v", s)
	}
	if s.AchievedID > 0.1 {
		t.Errorf("achieved ID %g above target", s.AchievedID)
	}
	// The decomposition stays a full, contiguous cover of the grid.
	total := 0
	for p, r := range res.Rows {
		if r < 1 {
			t.Errorf("rank %d left with %d rows", p, r)
		}
		total += r
	}
	if total != cfg.GridY {
		t.Errorf("rows sum to %d, want %d", total, cfg.GridY)
	}
	if res.Rows[cfg.SlowRank] >= cfg.GridY/cfg.Procs {
		t.Errorf("slow rank kept %d rows, want fewer than the even share %d",
			res.Rows[cfg.SlowRank], cfg.GridY/cfg.Procs)
	}
	regions := res.Cube.Regions()
	if regions[len(regions)-1] != RebalanceRegion {
		t.Errorf("last region %q, want %q", regions[len(regions)-1], RebalanceRegion)
	}

	// Against an adaptive run that measures but never migrates, moving
	// rows away from the straggler must shorten the run.
	base := stragglerCFD()
	base.Rebalance = noopRebalancer{}
	baseline, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.Span() >= baseline.Log.Span() {
		t.Errorf("rebalanced makespan %g not below baseline %g", res.Log.Span(), baseline.Log.Span())
	}
}

// Experiment S8, the paper's Section 2 tuning cycle, runs on the
// straggler test's grid with no straggler: a reactive controller at
// s8Target repairs a skewed decomposition while the program runs.
const s8Target = 0.02

// skewedCFD is the straggler test's grid with no straggler and the
// given decomposition skew.
func skewedCFD(skew float64) Config {
	cfg := stragglerCFD()
	cfg.SlowFactor = 0
	cfg.Imbalance = skew
	return cfg
}

// runCFD runs cfg with r as its rebalancer; nil gives the plain run.
func runCFD(t *testing.T, cfg Config, r Rebalancer) *Result {
	t.Helper()
	cfg.Rebalance = r
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tuneCFD runs cfg under a reactive controller at s8Target and fails
// the test unless the controller converges.
func tuneCFD(t *testing.T, cfg Config) (*Result, rebalance.Stats) {
	t.Helper()
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: s8Target})
	if err != nil {
		t.Fatal(err)
	}
	res := runCFD(t, cfg, ctrl)
	s := ctrl.Snapshot()
	if !s.Converged {
		t.Fatalf("never reached target: %+v", s)
	}
	return res, s
}

// largestSID is the largest SID_C of a run's cube.
func largestSID(t *testing.T, res *Result) float64 {
	t.Helper()
	a, err := core.Analyze(res.Cube, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a.TuningCandidates(core.MaxCriterion{})[0].Value
}

// TestCFDRebalanceReducesSkew: a skew-0.6 decomposition converges
// within 3 planning rounds, and the migrations pay for themselves
// against the run that measures at the same boundaries but never moves.
func TestCFDRebalanceReducesSkew(t *testing.T) {
	cfg := skewedCFD(0.6)
	tuned, s := tuneCFD(t, cfg)
	if s.RoundsToTarget > 3 {
		t.Errorf("converged after %d planning rounds, want <= 3", s.RoundsToTarget)
	}
	measureOnly := runCFD(t, cfg, noopRebalancer{})
	if tuned.Log.Span() >= measureOnly.Log.Span() {
		t.Errorf("tuned makespan %g not below measure-only %g", tuned.Log.Span(), measureOnly.Log.Span())
	}
}

// TestCFDRebalanceVerifiesAgainstPlain is the cycle's verify step: the
// tuned skew-0.6 run beats the plain run by makespan and by the
// largest SID_C.
func TestCFDRebalanceVerifiesAgainstPlain(t *testing.T) {
	cfg := skewedCFD(0.6)
	tuned, _ := tuneCFD(t, cfg)
	plain := runCFD(t, cfg, nil)
	if tuned.Log.Span() >= plain.Log.Span() {
		t.Errorf("tuned makespan %g not below plain %g", tuned.Log.Span(), plain.Log.Span())
	}
	if got, was := largestSID(t, tuned), largestSID(t, plain); got >= was {
		t.Errorf("largest SID_C %g not below plain run's %g", got, was)
	}
}

// TestCFDRebalanceBalancedStart: an even decomposition plans nothing
// and is converged at the first boundary.
func TestCFDRebalanceBalancedStart(t *testing.T) {
	_, s := tuneCFD(t, skewedCFD(0))
	if s.Rounds != 0 || s.Migrations != 0 || s.RoundsToTarget != 0 || s.History[0].MeasuredID > s8Target {
		t.Errorf("even decomposition planned moves: %+v", s)
	}
}

// TestCFDRebalancePreservesNumerics pins the key property of row
// migration: it moves data, not values. The residual sequence of a
// rebalanced run matches the plain run on the same grid to floating
// round-off (partial sums regroup across ranks).
func TestCFDRebalancePreservesNumerics(t *testing.T) {
	plain := stragglerCFD()
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stragglerCFD()
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = ctrl
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("residual count %d != %d", len(got.Residuals), len(want.Residuals))
	}
	for i := range want.Residuals {
		if diff := math.Abs(got.Residuals[i] - want.Residuals[i]); diff > 1e-9*math.Abs(want.Residuals[i]) {
			t.Errorf("iteration %d: residual %g != %g", i, got.Residuals[i], want.Residuals[i])
		}
	}
}

func TestCFDRebalanceDeterministic(t *testing.T) {
	run := func() (*Result, rebalance.Stats) {
		cfg := stragglerCFD()
		ctrl, err := rebalance.New(rebalance.PolicyPredictive, rebalance.Options{Target: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rebalance = ctrl
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, ctrl.Snapshot()
	}
	a, sa := run()
	b, sb := run()
	if a.Log.Span() != b.Log.Span() {
		t.Errorf("non-deterministic makespan: %g vs %g", a.Log.Span(), b.Log.Span())
	}
	for p := range a.Rows {
		if a.Rows[p] != b.Rows[p] {
			t.Fatalf("non-deterministic rows: %v vs %v", a.Rows, b.Rows)
		}
	}
	if sa.Rounds != sb.Rounds || sa.Migrations != sb.Migrations {
		t.Errorf("non-deterministic stats: %+v vs %+v", sa, sb)
	}
}
