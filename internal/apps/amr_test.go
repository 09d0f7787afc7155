package apps

import (
	"math"
	"testing"

	"loadimb/internal/core"
	"loadimb/internal/mpi"
	"loadimb/internal/rebalance"
)

func fastAMR() AMRConfig {
	cfg := DefaultAMR()
	cfg.Procs = 8
	cfg.Phases = 4
	return cfg
}

func TestAMRValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AMRConfig)
	}{
		{"procs", func(c *AMRConfig) { c.Procs = 1 }},
		{"phases", func(c *AMRConfig) { c.Phases = 0 }},
		{"base", func(c *AMRConfig) { c.BaseWork = 0 }},
		{"refine", func(c *AMRConfig) { c.RefineFactor = 0.5 }},
		{"width zero", func(c *AMRConfig) { c.FeatureWidth = 0 }},
		{"width huge", func(c *AMRConfig) { c.FeatureWidth = 99 }},
		{"bytes", func(c *AMRConfig) { c.FaceBytes = -1 }},
		{"straggler factor", func(c *AMRConfig) { c.StragglerFactor = -1 }},
		{"straggler rank", func(c *AMRConfig) { c.StragglerFactor = 4; c.Straggler = -1 }},
		{"straggler rank high", func(c *AMRConfig) { c.StragglerFactor = 4; c.Straggler = c.Procs }},
	}
	for _, c := range cases {
		cfg := fastAMR()
		c.mut(&cfg)
		if _, err := AMR(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAMRChecksum(t *testing.T) {
	cfg := fastAMR()
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedAMRWork(cfg)
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Errorf("checksum = %g, want %g", res.Checksum, want)
	}
}

func TestAMRStragglerChecksumAndWork(t *testing.T) {
	cfg := fastAMR()
	cfg.Straggler = 2
	cfg.StragglerFactor = 6
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ExpectedAMRWork sums the same amrWork the run charges, so the
	// analytic checksum tracks the injection automatically.
	want := ExpectedAMRWork(cfg)
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Errorf("checksum = %g, want %g", res.Checksum, want)
	}
	base := fastAMR()
	if got, plain := want, ExpectedAMRWork(base); got <= plain {
		t.Errorf("straggler run work %g not above baseline %g", got, plain)
	}
	// The straggler's whole-run computation exceeds every other rank's:
	// the moving feature refines different ranks in different phases, but
	// the injected slowdown sticks to one rank — the persistent signature
	// the diagnosis keys on.
	j := res.Cube.ActivityIndex("computation")
	if j < 0 {
		t.Fatalf("no computation activity in %v", res.Cube.Activities())
	}
	totals := make([]float64, res.Cube.NumProcs())
	for i := 0; i < res.Cube.NumRegions(); i++ {
		for p := range totals {
			v, err := res.Cube.At(i, j, p)
			if err != nil {
				t.Fatal(err)
			}
			totals[p] += v
		}
	}
	for p, v := range totals {
		if p != cfg.Straggler && totals[cfg.Straggler] <= v {
			t.Fatalf("straggler computation %g not above rank %d's %g", totals[cfg.Straggler], p, v)
		}
	}
}

func TestAMRFeatureMoves(t *testing.T) {
	cfg := fastAMR()
	// First phase centered at rank 0, last at the final rank.
	if featureCenter(0, cfg.Phases, cfg.Procs) != 0 {
		t.Error("first phase center wrong")
	}
	if featureCenter(cfg.Phases-1, cfg.Phases, cfg.Procs) != cfg.Procs-1 {
		t.Error("last phase center wrong")
	}
	// Single-phase degenerate case centers at 0.
	if featureCenter(0, 1, 8) != 0 {
		t.Error("single-phase center wrong")
	}
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc := res.Cube.ActivityIndex(mpi.ActComputation)
	// In phase 1 rank 0 is refined; in the last phase the last rank is.
	early0, err := res.Cube.At(0, jc, 0)
	if err != nil {
		t.Fatal(err)
	}
	earlyLast, err := res.Cube.At(0, jc, cfg.Procs-1)
	if err != nil {
		t.Fatal(err)
	}
	if early0 <= earlyLast {
		t.Errorf("phase 1: rank 0 work %g should exceed last rank's %g", early0, earlyLast)
	}
	late0, err := res.Cube.At(cfg.Phases-1, jc, 0)
	if err != nil {
		t.Fatal(err)
	}
	lateLast, err := res.Cube.At(cfg.Phases-1, jc, cfg.Procs-1)
	if err != nil {
		t.Fatal(err)
	}
	if lateLast <= late0 {
		t.Errorf("last phase: last rank work %g should exceed rank 0's %g", lateLast, late0)
	}
}

func TestAMRProcessorViewTracksFeature(t *testing.T) {
	cfg := fastAMR()
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(res.Cube, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every phase has positive computation dispersion (the feature is
	// always narrower than the machine).
	for i := range a.Cells {
		cell := a.Cells[i][res.Cube.ActivityIndex(mpi.ActComputation)]
		if !cell.Defined || cell.ID <= 0 {
			t.Errorf("phase %d: computation dispersion = %+v", i+1, cell)
		}
	}
	// The per-phase most-imbalanced processors differ across phases —
	// the signature of a moving feature that a whole-run average hides.
	winners := map[int]bool{}
	for i := range a.Processors.ByRegion {
		best, bestVal := -1, 0.0
		for p, d := range a.Processors.ByRegion[i] {
			if d.Defined && (best == -1 || d.ID > bestVal) {
				best, bestVal = p, d.ID
			}
		}
		winners[best] = true
	}
	if len(winners) < 2 {
		t.Errorf("moving feature should shift the most-imbalanced processor; winners = %v", winners)
	}
}

func TestAMRDeterministic(t *testing.T) {
	a, err := AMR(fastAMR())
	if err != nil {
		t.Fatal(err)
	}
	b, err := AMR(fastAMR())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cube.EqualWithin(b.Cube, 0) {
		t.Error("AMR runs should be deterministic")
	}
}

func TestAMRValidationNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		mut  func(*AMRConfig)
	}{
		{"nan base", func(c *AMRConfig) { c.BaseWork = nan }},
		{"inf base", func(c *AMRConfig) { c.BaseWork = inf }},
		{"nan refine", func(c *AMRConfig) { c.RefineFactor = nan }},
		{"nan straggler factor", func(c *AMRConfig) { c.StragglerFactor = nan }},
		{"inf straggler factor", func(c *AMRConfig) { c.StragglerFactor = inf }},
		{"negative sweeps", func(c *AMRConfig) { c.Sweeps = -1 }},
		{"negative cells", func(c *AMRConfig) { c.CellsPerRank = -1 }},
		{"negative migrate bytes", func(c *AMRConfig) { c.MigrateBytes = -1 }},
	}
	for _, c := range cases {
		cfg := fastAMR()
		c.mut(&cfg)
		if _, err := AMR(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// stragglerAMR is the acceptance scenario: a persistent 5x straggler and
// no moving feature (width 1 covers only the feature rank; refinement
// off isolates the straggler as the only imbalance source).
func stragglerAMR(sweeps int) AMRConfig {
	cfg := DefaultAMR()
	cfg.Procs = 8
	cfg.Phases = 4
	cfg.Sweeps = sweeps
	cfg.RefineFactor = 1
	cfg.Straggler = 3
	cfg.StragglerFactor = 5
	return cfg
}

func TestAMRRebalanceConvergesOnStraggler(t *testing.T) {
	cfg := stragglerAMR(3)
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = ctrl
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ctrl.Snapshot()
	if !s.Converged {
		t.Fatalf("reactive never reached target: %+v", s)
	}
	if s.AchievedID >= 0.1 {
		t.Errorf("final measured ID %g not below target 0.1", s.AchievedID)
	}
	// The run must beat the no-rebalance baseline on makespan: the
	// straggler sheds cells, so the critical path shortens.
	base := stragglerAMR(3)
	baseline, err := AMR(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= baseline.Makespan {
		t.Errorf("rebalanced makespan %g not below baseline %g", res.Makespan, baseline.Makespan)
	}
	// Migration conserves the base-work checksum.
	want := ExpectedAMRBaseWork(cfg)
	if math.Abs(res.Checksum-want) > 1e-6*want {
		t.Errorf("checksum %g, want %g", res.Checksum, want)
	}
	if math.Abs(baseline.Checksum-want) > 1e-6*want {
		t.Errorf("baseline checksum %g, want %g", baseline.Checksum, want)
	}
}

func TestAMRPredictiveNoSlowerThanReactive(t *testing.T) {
	run := func(policy string) (rounds int, makespan float64) {
		cfg := stragglerAMR(3)
		ctrl, err := rebalance.New(policy, rebalance.Options{Target: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rebalance = ctrl
		res, err := AMR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := ctrl.Snapshot()
		if !s.Converged {
			t.Fatalf("%s never reached target: %+v", policy, s)
		}
		return s.RoundsToTarget, res.Makespan
	}
	reactiveRounds, reactiveSpan := run(rebalance.PolicyReactive)
	predictiveRounds, predictiveSpan := run(rebalance.PolicyPredictive)
	if predictiveRounds > reactiveRounds {
		t.Errorf("predictive took %d rounds, reactive %d", predictiveRounds, reactiveRounds)
	}
	// Pre-migration must never worsen the makespan vs reacting.
	if predictiveSpan > reactiveSpan*1.001 {
		t.Errorf("predictive makespan %g worse than reactive %g", predictiveSpan, reactiveSpan)
	}
}

func TestAMRMultiSweepWithoutRebalance(t *testing.T) {
	cfg := fastAMR()
	cfg.Sweeps = 2
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedAMRBaseWork(cfg)
	if math.Abs(res.Checksum-want) > 1e-6*want {
		t.Errorf("checksum %g, want %g", res.Checksum, want)
	}
	if got := res.Cube.Regions(); len(got) != cfg.Sweeps*cfg.Phases {
		t.Errorf("regions = %d, want %d", len(got), cfg.Sweeps*cfg.Phases)
	}
}

func TestAMRRebalanceCubeHasRebalanceRegion(t *testing.T) {
	cfg := stragglerAMR(2)
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = ctrl
	res, err := AMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regions := res.Cube.Regions()
	if regions[len(regions)-1] != AMRRebalanceRegion {
		t.Errorf("last region %q, want %q", regions[len(regions)-1], AMRRebalanceRegion)
	}
}
