package apps

import (
	"testing"

	"loadimb/internal/rebalance"
)

// The rebalance benchmarks drive the acceptance scenarios end to end —
// a persistent 5x straggler under each policy — and report the numbers
// the paper's closed loop is judged by: makespan, the achieved ID_P,
// and how many decision rounds the controller needed to reach its
// target. The AMR acceptance floors (reactive ID_P below 0.1 with a
// makespan gain; predictive rounds no more than reactive's) are held by
// TestAMRRebalanceConvergesOnStraggler and
// TestAMRPredictiveNoSlowerThanReactive, which run the same scenario at
// the same target.

func benchAMR(b *testing.B, policy string, target float64) {
	b.ReportAllocs()
	var makespan float64
	var stats rebalance.Stats
	for i := 0; i < b.N; i++ {
		cfg := stragglerAMR(3)
		var ctrl *rebalance.Controller
		if policy != "" {
			var err error
			ctrl, err = rebalance.New(policy, rebalance.Options{Target: target})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Rebalance = ctrl
		}
		res, err := AMR(cfg)
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan
		if ctrl != nil {
			stats = ctrl.Snapshot()
		}
	}
	b.ReportMetric(makespan, "makespan_s")
	if policy != "" {
		b.ReportMetric(stats.AchievedID, "id_p")
		b.ReportMetric(float64(stats.RoundsToTarget), "rounds_to_target")
		b.ReportMetric(float64(stats.Migrations), "migrations")
	}
}

func benchMW(b *testing.B, policy string, target float64) {
	b.ReportAllocs()
	var makespan float64
	var stats rebalance.Stats
	for i := 0; i < b.N; i++ {
		cfg := stragglerMW()
		var ctrl *rebalance.Controller
		if policy != "" {
			var err error
			ctrl, err = rebalance.New(policy, rebalance.Options{Target: target})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Rebalance = ctrl
		}
		res, err := MasterWorker(cfg)
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan
		if ctrl != nil {
			stats = ctrl.Snapshot()
		}
	}
	b.ReportMetric(makespan, "makespan_s")
	if policy != "" {
		b.ReportMetric(stats.AchievedID, "id_p")
		b.ReportMetric(float64(stats.RoundsToTarget), "rounds_to_target")
		b.ReportMetric(float64(stats.Migrations), "migrations")
	}
}

func BenchmarkRebalanceAMR(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchAMR(b, "", 0) })
	b.Run("reactive", func(b *testing.B) { benchAMR(b, rebalance.PolicyReactive, 0.1) })
	b.Run("predictive", func(b *testing.B) { benchAMR(b, rebalance.PolicyPredictive, 0.1) })
}

func BenchmarkRebalanceMW(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchMW(b, "", 0) })
	b.Run("reactive", func(b *testing.B) { benchMW(b, rebalance.PolicyReactive, 0.15) })
	b.Run("predictive", func(b *testing.B) { benchMW(b, rebalance.PolicyPredictive, 0.15) })
}
