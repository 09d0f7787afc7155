package rebalance

import (
	"errors"
	"math"
	"testing"
)

// applyPlan returns the load vector after the plan's moves, modeling a
// workload whose load is fully migratable.
func applyPlan(loads []float64, plan Plan) []float64 {
	out := append([]float64(nil), loads...)
	for _, m := range plan.Moves {
		out[m.From] -= m.Amount
		out[m.To] += m.Amount
	}
	return out
}

// lcg is a tiny deterministic PRNG for property tests.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func TestPlanMovesBalances(t *testing.T) {
	loads := []float64{10, 1, 1, 1}
	plan, err := PlanMoves(loads, Options{Target: 0.1, Damping: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned for a 10x hot rank")
	}
	if plan.Moves[0].From != 0 {
		t.Errorf("first move from rank %d, want 0 (the hot one)", plan.Moves[0].From)
	}
	if plan.PlannedID >= plan.MeasuredID {
		t.Errorf("planned ID %g not below measured %g", plan.PlannedID, plan.MeasuredID)
	}
	after, err := LoadID(applyPlan(loads, plan))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-plan.PlannedID) > 1e-12 {
		t.Errorf("applied ID %g != planned %g", after, plan.PlannedID)
	}
}

func TestPlanMovesAtTargetNoMoves(t *testing.T) {
	plan, err := PlanMoves([]float64{1, 1, 1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 || plan.MeasuredID != 0 {
		t.Errorf("balanced loads planned %v (ID %g)", plan.Moves, plan.MeasuredID)
	}
	// Single rank: nothing to move, never an error.
	if plan, err = PlanMoves([]float64{5}, Options{}); err != nil || len(plan.Moves) != 0 {
		t.Errorf("single rank: plan %v, err %v", plan.Moves, err)
	}
	// All-zero loads: nothing to disperse.
	if plan, err = PlanMoves([]float64{0, 0}, Options{}); err != nil || len(plan.Moves) != 0 {
		t.Errorf("zero loads: plan %v, err %v", plan.Moves, err)
	}
}

func TestPlanMovesValidation(t *testing.T) {
	nan := math.NaN()
	if _, err := PlanMoves([]float64{1, nan}, Options{}); !errors.Is(err, ErrBadLoads) {
		t.Errorf("NaN load err = %v", err)
	}
	if _, err := PlanMoves([]float64{1, -1}, Options{}); !errors.Is(err, ErrBadLoads) {
		t.Errorf("negative load err = %v", err)
	}
	if _, err := PlanMoves(nil, Options{}); !errors.Is(err, ErrBadLoads) {
		t.Errorf("empty loads err = %v", err)
	}
	// NaN options sail through plain range checks; they must be
	// rejected explicitly.
	if _, err := PlanMoves([]float64{1, 2}, Options{Target: nan}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NaN target err = %v", err)
	}
	if _, err := PlanMoves([]float64{1, 2}, Options{Damping: nan}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NaN damping err = %v", err)
	}
	if _, err := PlanMoves([]float64{1, 2}, Options{Damping: 2}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("damping 2 err = %v", err)
	}
}

func TestNewRejectsBadPolicyAndOptions(t *testing.T) {
	if _, err := New("random", Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown policy err = %v", err)
	}
	if _, err := New(PolicyReactive, Options{Target: math.NaN()}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NaN target err = %v", err)
	}
	if _, err := New(PolicyPredictive, Options{Target: math.Inf(1)}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Inf target err = %v", err)
	}
}

// TestReactiveMonotoneConvergent is the property test of the satellite:
// on a static fully-migratable workload the reactive loop's measured
// ID_P never increases between rounds and reaches the target.
func TestReactiveMonotoneConvergent(t *testing.T) {
	rng := lcg(1)
	for trial := 0; trial < 50; trial++ {
		procs := 2 + int(rng.next()*30)
		loads := make([]float64, procs)
		for i := range loads {
			loads[i] = 0.1 + rng.next()*10
		}
		// Inject a straggler every other trial.
		if trial%2 == 0 {
			loads[int(rng.next()*float64(procs))] *= 5
		}
		ctrl, err := New(PolicyReactive, Options{Target: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		converged := false
		for boundary := 0; boundary < 100; boundary++ {
			plan, err := ctrl.Decide(boundary, loads)
			if err != nil {
				t.Fatal(err)
			}
			if plan.MeasuredID > prev+1e-12 {
				t.Fatalf("trial %d: ID rose %g -> %g at boundary %d",
					trial, prev, plan.MeasuredID, boundary)
			}
			prev = plan.MeasuredID
			if plan.MeasuredID <= 0.1 {
				converged = true
				break
			}
			loads = applyPlan(loads, plan)
		}
		if !converged {
			t.Fatalf("trial %d: never reached target, final ID %g", trial, prev)
		}
	}
}

// TestPredictiveNoSlowerThanReactive: on the same static workload the
// predictive policy (full correction on a regime-certified forecast)
// needs no more rounds to the target than the damped reactive loop.
func TestPredictiveNoSlowerThanReactive(t *testing.T) {
	rng := lcg(7)
	for trial := 0; trial < 20; trial++ {
		procs := 4 + int(rng.next()*28)
		base := make([]float64, procs)
		for i := range base {
			base[i] = 1 + rng.next()*3
		}
		base[int(rng.next()*float64(procs))] *= 5
		rounds := func(policy string) int {
			ctrl, err := New(policy, Options{Target: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			loads := append([]float64(nil), base...)
			for boundary := 0; boundary < 100; boundary++ {
				plan, err := ctrl.Decide(boundary, loads)
				if err != nil {
					t.Fatal(err)
				}
				if plan.MeasuredID <= 0.1 {
					return ctrl.Snapshot().RoundsToTarget
				}
				loads = applyPlan(loads, plan)
			}
			t.Fatalf("trial %d: %s never converged", trial, policy)
			return -1
		}
		reactive := rounds(PolicyReactive)
		predictive := rounds(PolicyPredictive)
		if predictive > reactive {
			t.Errorf("trial %d (P=%d): predictive took %d rounds, reactive %d",
				trial, procs, predictive, reactive)
		}
	}
}

func TestControllerMemoizesBoundaries(t *testing.T) {
	ctrl, err := New(PolicyReactive, Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{10, 1, 1, 1}
	first, err := ctrl.Decide(3, loads)
	if err != nil {
		t.Fatal(err)
	}
	// The other SPMD ranks arrive at the same boundary.
	for rank := 1; rank < 4; rank++ {
		again, err := ctrl.Decide(3, loads)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Moves) != len(first.Moves) || again.PlannedID != first.PlannedID {
			t.Fatalf("rank %d got a different plan: %+v vs %+v", rank, again, first)
		}
	}
	s := ctrl.Snapshot()
	if s.Boundaries != 1 || s.Rounds != 1 {
		t.Errorf("stats counted boundary %d times (rounds %d), want once", s.Boundaries, s.Rounds)
	}
	if s.Migrations != len(first.Moves) {
		t.Errorf("migrations = %d, want %d", s.Migrations, len(first.Moves))
	}
}

// TestControllerRoundCap: on loads that never change (nothing applies
// the plans), every boundary up to the cap plans moves, and the one past
// it plans none.
func TestControllerRoundCap(t *testing.T) {
	ctrl, err := New(PolicyReactive, Options{Target: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{10, 1, 1, 1}
	for boundary := 0; boundary < maxRounds; boundary++ {
		plan, err := ctrl.Decide(boundary, loads)
		if err != nil || len(plan.Moves) == 0 {
			t.Fatalf("boundary %d: plan %v, err %v", boundary, plan.Moves, err)
		}
	}
	plan, err := ctrl.Decide(maxRounds, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("round cap ignored: %d moves planned", len(plan.Moves))
	}
	s := ctrl.Snapshot()
	if s.Rounds != maxRounds || s.Boundaries != maxRounds+1 {
		t.Errorf("rounds = %d boundaries = %d, want %d and %d", s.Rounds, s.Boundaries, maxRounds, maxRounds+1)
	}
}

func TestForecasterEpochExcludesStaleWindows(t *testing.T) {
	f := NewForecaster()
	f.Observe([]float64{8, 1, 1})
	f.MarkMigration()
	f.Observe([]float64{2, 2, 2})
	fc, ok := f.Forecast()
	if !ok {
		t.Fatal("no forecast after two observations")
	}
	// Only the post-migration window may contribute: equal shares.
	for i, v := range fc {
		if math.Abs(v-2) > 1e-12 {
			t.Errorf("forecast[%d] = %g, want 2 (stale pre-migration window leaked in)", i, v)
		}
	}
}

func TestForecasterIdleWindows(t *testing.T) {
	f := NewForecaster()
	f.Observe([]float64{0, 0, 0})
	if _, ok := f.Forecast(); ok {
		t.Error("forecast from an all-idle trajectory")
	}
}

func TestControllerConvergenceAccounting(t *testing.T) {
	ctrl, err := New(PolicyReactive, Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{10, 1, 1, 1}
	for boundary := 0; boundary < 50; boundary++ {
		plan, err := ctrl.Decide(boundary, loads)
		if err != nil {
			t.Fatal(err)
		}
		if plan.MeasuredID <= 0.1 {
			break
		}
		loads = applyPlan(loads, plan)
	}
	s := ctrl.Snapshot()
	if !s.Converged {
		t.Fatalf("not converged: %+v", s)
	}
	if s.RoundsToTarget < 1 || s.RoundsToTarget > s.Rounds {
		t.Errorf("rounds to target = %d with %d rounds", s.RoundsToTarget, s.Rounds)
	}
	if len(s.History) != s.Boundaries {
		t.Errorf("history has %d entries for %d boundaries", len(s.History), s.Boundaries)
	}
	if s.AchievedID > 0.1 {
		t.Errorf("achieved ID %g above target", s.AchievedID)
	}
}
