// tune drives the paper's complete performance-tuning cycle on the
// simulated CFD program: identification and localization (the
// methodology), repair (the rebalance controller migrating grid rows
// while the program runs, until ID_P meets its target), and
// verification (the tuned run against the plain one, by makespan and by
// the largest scaled index SID_C) — Section 2's iterative process,
// automated.
package main

import (
	"fmt"
	"log"

	"loadimb/internal/cfd"
	"loadimb/internal/core"
	"loadimb/internal/rebalance"
)

func main() {
	log.SetFlags(0)

	cfg := cfd.Defaults()
	cfg.Imbalance = 0.6 // start badly imbalanced
	const target = 0.02
	fmt.Printf("tuning the simulated CFD program (starting skew %.2f, reactive target ID_P %.2f)\n\n",
		cfg.Imbalance, target)

	plain, err := cfd.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	tunedCfg := cfg
	tunedCfg.Rebalance = ctrl
	tuned, err := cfd.Run(tunedCfg)
	if err != nil {
		log.Fatal(err)
	}

	s := ctrl.Snapshot()
	fmt.Printf("%-9s %12s %12s %6s %13s\n", "boundary", "measured ID", "planned ID", "moves", "migrated (s)")
	for i, h := range s.History {
		// Once balanced the controller holds: print only the first of
		// each run of boundaries that planned no moves.
		if i > 0 && h.Moves == 0 && s.History[i-1].Moves == 0 {
			continue
		}
		fmt.Printf("%-9d %12.5f %12.5f %6d %13.4f\n", h.Boundary, h.MeasuredID, h.PlannedID, h.Moves, h.Migrated)
	}
	fmt.Printf("\n%s controller over %d boundaries: converged=%v after %d planning round(s), %d moves, final ID_P %.5f\n",
		s.Policy, s.Boundaries, s.Converged, s.RoundsToTarget, s.Migrations, s.AchievedID)

	// Verification: the tuned run against the plain one.
	before, beforeRegion, err := largestSID(plain)
	if err != nil {
		log.Fatal(err)
	}
	after, afterRegion, err := largestSID(tuned)
	if err != nil {
		log.Fatal(err)
	}
	pt, tt := plain.Cube.ProgramTime(), tuned.Cube.ProgramTime()
	fmt.Printf("verification: program time %.3f s -> %.3f s (%.3fx), largest SID_C %.5f (%s) -> %.5f (%s), improved=%v\n",
		pt, tt, pt/tt, before, beforeRegion, after, afterRegion, tt < pt && after < before)
}

// largestSID runs the methodology on a run's cube and returns its top
// tuning candidate's scaled index SID_C and region name.
func largestSID(res *cfd.Result) (float64, string, error) {
	a, err := core.Analyze(res.Cube, core.AnalyzeOptions{})
	if err != nil {
		return 0, "", err
	}
	cands := a.TuningCandidates(core.MaxCriterion{})
	if len(cands) == 0 {
		return 0, "", fmt.Errorf("no tuning candidate")
	}
	return cands[0].Value, a.Regions[cands[0].Pos].Name, nil
}
