package main

// The observed_app workload: the program being observed. A closed loop of
// pairs runs the CFD solver and the straggler AMR application with its
// predictive rebalancer, each once detached and once with an in-process
// windowed Collector as its event sink (one Snapshot per run), alternating
// which runs first. Every tenth pair also runs the solver over a
// Unix-socket IngestClient. Network and federation are bypassed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"loadimb/internal/apps"
	"loadimb/internal/cfd"
	"loadimb/internal/monitor"
	"loadimb/internal/rebalance"
	"loadimb/internal/trace"
)

const (
	appWindows   = 32 // temporal windows over one run's virtual span
	appWireEvery = 10 // pairs per wire-observed solver run
)

type appSys struct {
	tr  *tracer
	rec *recorder

	cfdCfg cfd.Config
	amrCfg apps.AMRConfig

	// The detached reference runs every pair must reproduce.
	residuals []float64
	checksum  float64
	makespan  float64
	cfdEvents int
	amrEvents int
	cfdWindow float64
	amrWindow float64

	ing       *monitor.IngestServer
	wireCol   *monitor.Collector
	wire      *monitor.IngestClient
	wireSent  atomic.Uint64
	lastStats rebalance.Stats
}

func prepareApp(seed int64) (buildFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	cfdCfg := cfd.Defaults()
	cfdCfg.Procs = 8
	cfdCfg.GridX, cfdCfg.GridY = 128, 128
	cfdCfg.Iterations = 5
	amrCfg := apps.DefaultAMR()
	amrCfg.Procs = 8
	amrCfg.Phases = 4
	amrCfg.Sweeps = 3
	amrCfg.RefineFactor = 1
	amrCfg.Straggler = rng.Intn(amrCfg.Procs)
	amrCfg.StragglerFactor = 5
	return func(tr *tracer, rec *recorder) (system, error) { return buildApp(cfdCfg, amrCfg, tr, rec) }, nil
}

func buildApp(cfdCfg cfd.Config, amrCfg apps.AMRConfig, tr *tracer, rec *recorder) (system, error) {
	s := &appSys{tr: tr, rec: rec, cfdCfg: cfdCfg, amrCfg: amrCfg}
	// Reference runs: the detached results every later run must match,
	// and the virtual spans the attached collectors' windows divide.
	res, err := cfd.Run(s.cfdCfg)
	if err != nil {
		return nil, err
	}
	s.residuals, s.cfdEvents = res.Residuals, res.Log.Len()
	s.cfdWindow = res.Log.Span() / appWindows
	amr, _, err := s.runAMR(nil)
	if err != nil {
		return nil, err
	}
	s.checksum, s.makespan, s.amrEvents = amr.Checksum, amr.Makespan, amr.Log.Len()
	s.amrWindow = amr.Makespan / appWindows

	s.wireCol = monitor.NewCollector(monitor.Options{Window: s.cfdWindow})
	s.ing = monitor.NewIngestServer(s.wireCol, monitor.IngestOptions{})
	spec := ingestSocket()
	if _, err := s.ing.Listen(spec); err != nil {
		s.close()
		return nil, err
	}
	if s.wire, err = monitor.DialIngest(spec, monitor.ClientOptions{Batch: 4096, FlushInterval: -1}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runAMR runs the straggler AMR application under a fresh predictive
// controller.
func (s *appSys) runAMR(sink trace.Sink) (*apps.Result, rebalance.Stats, error) {
	ctrl, err := rebalance.New(rebalance.PolicyPredictive, rebalance.Options{Target: 0.1})
	if err != nil {
		return nil, rebalance.Stats{}, err
	}
	cfg := s.amrCfg
	cfg.Rebalance = ctrl
	cfg.Sink = sink
	res, err := apps.AMR(cfg)
	return res, ctrl.Snapshot(), err
}

// timed runs fn inside a span and returns its wall time.
func (s *appSys) timed(name string, parent spanRef, fn func(spanRef) error) (time.Duration, error) {
	o := s.tr.start(name, parent)
	t := time.Now()
	err := fn(o.ref)
	d := time.Since(t)
	s.tr.finish(o)
	return d, err
}

// observed returns a windowed collector sink and the function that takes
// the run's one snapshot.
func (s *appSys) observed(window float64, parent spanRef) (*monitor.Collector, func()) {
	c := monitor.NewCollector(monitor.Options{Window: window})
	return c, func() {
		o := s.tr.start("monitor.snapshot", parent)
		c.Snapshot()
		s.tr.finish(o)
	}
}

func (s *appSys) checkResiduals(got []float64, how string) error {
	if len(got) != len(s.residuals) {
		return fmt.Errorf("%s solver: %d residuals, want %d", how, len(got), len(s.residuals))
	}
	for i, r := range got {
		if math.Abs(r-s.residuals[i]) > 1e-9 {
			return fmt.Errorf("%s solver: residual %d = %.17g, detached %.17g", how, i, r, s.residuals[i])
		}
	}
	return nil
}

func (s *appSys) checkAMR(res *apps.Result, how string) error {
	if res.Checksum != s.checksum {
		return fmt.Errorf("%s AMR: checksum %.17g, want %.17g", how, res.Checksum, s.checksum)
	}
	if res.Makespan != s.makespan {
		return fmt.Errorf("%s AMR: makespan %.17g, want %.17g", how, res.Makespan, s.makespan)
	}
	return nil
}

// pair runs one detached/attached pair of each application, in the given
// order, and records the ratios.
func (s *appSys) pair(i int) {
	st := s.rec.begin()
	root := s.tr.start("bench.pair", spanRef{})
	defer s.tr.finish(root)

	var cfdDet, cfdAtt, amrDet, amrAtt time.Duration
	detachedCFD := func() {
		d, err := s.timed("cfd.run", root.ref, func(spanRef) error {
			res, err := cfd.Run(s.cfdCfg)
			if err == nil {
				err = s.checkResiduals(res.Residuals, "detached")
			}
			return err
		})
		s.rec.check(err)
		cfdDet = d
	}
	attachedCFD := func() {
		d, err := s.timed("cfd.run_observed", root.ref, func(ref spanRef) error {
			c, snapshot := s.observed(s.cfdWindow, ref)
			cfg := s.cfdCfg
			cfg.Sink = c
			res, err := cfd.Run(cfg)
			snapshot()
			if err == nil {
				err = s.checkResiduals(res.Residuals, "observed")
			}
			return err
		})
		s.rec.check(err)
		cfdAtt = d
	}
	detachedAMR := func() {
		d, err := s.timed("apps.amr_run", root.ref, func(spanRef) error {
			res, _, err := s.runAMR(nil)
			if err == nil {
				err = s.checkAMR(res, "detached")
			}
			return err
		})
		s.rec.check(err)
		amrDet = d
	}
	attachedAMR := func() {
		d, err := s.timed("apps.amr_run_observed", root.ref, func(ref spanRef) error {
			c, snapshot := s.observed(s.amrWindow, ref)
			res, stats, err := s.runAMR(c)
			snapshot()
			if err == nil {
				err = s.checkAMR(res, "observed")
				s.lastStats = stats
			}
			return err
		})
		s.rec.check(err)
		amrAtt = d
	}
	if i%2 == 0 {
		detachedCFD()
		attachedCFD()
		detachedAMR()
		attachedAMR()
	} else {
		attachedCFD()
		detachedCFD()
		attachedAMR()
		detachedAMR()
	}
	s.rec.op(st, cfdAtt+amrAtt, nil)
	s.rec.sample(st, "app_slowdown", float64(cfdAtt)/float64(cfdDet))
	s.rec.sample(st, "app_slowdown", float64(amrAtt)/float64(amrDet))
	s.rec.sample(st, "cfd.run_ms", ms(cfdDet))
	s.rec.sample(st, "apps.amr_run_ms", ms(amrDet))
	s.rec.sample(st, "monitor.record_extra_ns", float64(cfdAtt-cfdDet+amrAtt-amrDet))

	if i%appWireEvery == 0 {
		d, err := s.timed("cfd.run_wire", root.ref, func(spanRef) error {
			cfg := s.cfdCfg
			cfg.Sink = s.wire
			res, err := cfd.Run(cfg)
			if err == nil {
				err = s.wire.Flush()
			}
			if err == nil {
				s.wireSent.Add(uint64(res.Log.Len()))
				err = s.checkResiduals(res.Residuals, "wire-observed")
			}
			return err
		})
		s.rec.check(err)
		s.rec.sample(st, "monitor.slowdown_wire", float64(d)/float64(cfdDet))
	}
}

func (s *appSys) run(ctx context.Context) {
	for i := 0; ctx.Err() == nil; i++ {
		s.pair(i)
	}
}

func (s *appSys) finish(res *result) {
	rec := s.rec
	rec.check(errorf(s.wire.Close(), "closing the wire client"))
	s.wire = nil
	sent := s.wireSent.Load()
	waitDecoded(s.ing, sent)
	rec.check(errorf(s.ing.Close(), "closing the ingest server"))
	snap := s.wireCol.Snapshot()
	rec.checkf(s.ing.Events() == sent && snap.Events == sent,
		"wire-observed runs sent %d events, server decoded %d, collector folded %d", sent, s.ing.Events(), snap.Events)

	sd := rec.samplesOf("app_slowdown")
	res.set("app_slowdown", median(sd), "ratio", len(sd))
	sw := rec.samplesOf("monitor.slowdown_wire")
	res.set("monitor.slowdown_wire", median(sw), "ratio", len(sw))
	res.set("app_makespan_s", s.makespan, "virtual_s", 1)
	for _, name := range []string{"cfd.run_ms", "apps.amr_run_ms"} {
		v := rec.samplesOf(name)
		res.set(name+".p50", median(v), "ms", len(v))
	}
	extra := rec.samplesOf("monitor.record_extra_ns")
	var total float64
	for _, v := range extra {
		total += v
	}
	if len(extra) > 0 {
		res.set("monitor.record_ns_per_event", total/float64(len(extra)*(s.cfdEvents+s.amrEvents)), "ns", len(extra))
	}
	res.set("rebalance.migrations", float64(s.lastStats.Migrations), "count", 1)
	res.set("rebalance.rounds_to_target", float64(s.lastStats.RoundsToTarget), "count", 1)
	res.set("rebalance.achieved_id", s.lastStats.AchievedID, "id", 1)
}

func (s *appSys) close() {
	if s.wire != nil {
		waitConnected(s.ing)
		_ = s.wire.Close()
	}
	if s.ing != nil {
		_ = s.ing.Close()
	}
}
