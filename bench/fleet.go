package main

// The fleet workload: an open-loop generator records a fixed event rate
// into 32 leaf collectors served by one HTTP server, and one goroutine
// refreshes a two-tier federation tree over them bottom-up, round after
// round: two mid federators scrape 16 leaves each, a root federator
// scrapes the mids (Raw), and the root merges. The work is in /delta
// encoding, delta application and the federators' merges; wire ingest is
// bypassed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"loadimb/internal/federate"
	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

const (
	fleetLeaves       = 32
	fleetMids         = 2
	fleetRanksPerLeaf = 8
	fleetTick         = 10 * time.Millisecond
	// fleetUnit is the virtual time one tick's work spans, in whole
	// units: every duration is integral, so busy-time sums are exact in
	// any summation order and "visible at the root" is an equality test.
	fleetUnit = 100
	// fleetTicksPerWindow makes one temporal window per second of load.
	fleetTicksPerWindow = float64(time.Second / fleetTick)
	// fleetCycle ticks are generated once and replayed, shifted in
	// virtual time.
	fleetCycle = 50
	// fleetTargetID is the per-leaf imbalance of the generated work.
	fleetTargetID = 0.1
)

// fleetRegions and fleetActivities: two events per rank per tick, so the
// fleet records 32 × 8 × 2 events per 10 ms tick, about 51k events/s.
var (
	fleetCells = []cell{
		{region: "solve", activity: "computation", share: 0.8},
		{region: "exchange", activity: "communication", share: 0.2},
	}
	fleetRegions    = []string{"solve", "exchange"}
	fleetActivities = []string{"computation", "communication"}
)

// pendingEmit is one leaf batch not yet visible at the root.
type pendingEmit struct {
	at       time.Time // when the batch was due
	cum      float64   // the leaf's cumulative busy time after this batch
	measured bool
}

type fleetSys struct {
	tr  *tracer
	rec *recorder

	leaves []*monitor.Collector
	mids   []*federate.Federator
	root   *federate.Federator
	srv    *httptest.Server
	client *http.Client

	// ticks[k][leaf] is the leaf's batch for tick k of the generated
	// cycle, replayed shifted in virtual time.
	ticks [][][]trace.Event

	mu      sync.Mutex
	emitted int // ticks emitted
	cum     []float64
	pending [][]pendingEmit

	lastBytes uint64
}

func prepareFleet(seed int64) (buildFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	// Each leaf's ranks carry seeded work with the target imbalance; each
	// tick scales it by a seeded load factor, in whole units.
	work := make([][]float64, fleetLeaves)
	for l := range work {
		w, err := rankWork(rng, fleetRanksPerLeaf, fleetTargetID)
		if err != nil {
			return nil, err
		}
		work[l] = w
	}
	ticks := make([][][]trace.Event, fleetCycle)
	for k := range ticks {
		load := 0.4 + 0.2*rng.Float64()
		ticks[k] = make([][]trace.Event, fleetLeaves)
		for l := range ticks[k] {
			units := make([]float64, fleetRanksPerLeaf)
			for p, w := range work[l] {
				units[p] = math.Max(2, math.Round(w*load*fleetUnit/2))
			}
			ticks[k][l] = appendIteration(nil, units, fleetCells, 0, float64(k*fleetUnit), true)
		}
	}
	return func(tr *tracer, rec *recorder) (system, error) { return buildFleet(ticks, tr, rec) }, nil
}

func buildFleet(ticks [][][]trace.Event, tr *tracer, rec *recorder) (system, error) {
	s := &fleetSys{tr: tr, rec: rec, ticks: ticks, client: newClient(),
		cum: make([]float64, fleetLeaves), pending: make([][]pendingEmit, fleetLeaves)}
	mux := http.NewServeMux()
	for l := 0; l < fleetLeaves; l++ {
		c := monitor.NewCollector(monitor.Options{
			Window:     fleetTicksPerWindow * fleetUnit,
			Regions:    fleetRegions,
			Activities: fleetActivities,
		})
		s.leaves = append(s.leaves, c)
		src := &tracedSource{t: tr, src: c, name: "monitor.snapshot"}
		prefix := fmt.Sprintf("/leaf%02d", l)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, src.handler(serve.Mux(src))))
	}
	s.srv = httptest.NewServer(mux)
	fedOpts := func(eps []federate.Endpoint) federate.Options {
		return federate.Options{Endpoints: eps, Client: s.client, Timeout: 10 * time.Second, MaxFailures: 1 << 30}
	}
	perMid := fleetLeaves / fleetMids
	var rootEps []federate.Endpoint
	for m := 0; m < fleetMids; m++ {
		var eps []federate.Endpoint
		for l := m * perMid; l < (m+1)*perMid; l++ {
			eps = append(eps, federate.Endpoint{Name: leafName(l), URL: fmt.Sprintf("%s/leaf%02d", s.srv.URL, l)})
		}
		f, err := federate.New(fedOpts(eps))
		if err != nil {
			s.close()
			return nil, err
		}
		s.mids = append(s.mids, f)
		src := &tracedSource{t: tr, src: f, name: "federate.merge"}
		prefix := fmt.Sprintf("/mid%d", m)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, src.handler(serve.Mux(src))))
		rootEps = append(rootEps, federate.Endpoint{Name: fmt.Sprintf("mid%d", m), URL: s.srv.URL + prefix, Raw: true})
	}
	var err error
	if s.root, err = federate.New(fedOpts(rootEps)); err != nil {
		s.close()
		return nil, err
	}
	// The first tick and round sync the tree from cold: full documents at
	// every tier, part of standing the fleet up.
	s.emit(false, time.Now())
	if err := s.round(context.Background(), opState{}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func leafName(l int) string { return fmt.Sprintf("leaf%02d", l) }

// emit records the next tick, due at due, into every leaf.
func (s *fleetSys) emit(measured bool, due time.Time) {
	s.mu.Lock()
	k := s.emitted
	s.emitted++
	s.mu.Unlock()
	o := s.tr.start("monitor.record_batch", spanRef{})
	batches := s.tickBatches(k)
	for l, c := range s.leaves {
		c.RecordBatch(batches[l])
		s.mu.Lock()
		s.cum[l] += batchBusy(batches[l])
		s.pending[l] = append(s.pending[l], pendingEmit{at: due, cum: s.cum[l], measured: measured})
		s.mu.Unlock()
	}
	s.tr.finish(o)
}

// tickBatches returns the leaf batches of tick k: the cycle's batches
// shifted by whole cycles of virtual time.
func (s *fleetSys) tickBatches(k int) [][]trace.Event {
	base := s.ticks[k%fleetCycle]
	shift := float64(k/fleetCycle) * fleetCycle * fleetUnit
	out := make([][]trace.Event, len(base))
	for l, b := range base {
		out[l] = make([]trace.Event, len(b))
		for i, e := range b {
			e.Start += shift
			e.End += shift
			out[l][i] = e
		}
	}
	return out
}

func batchBusy(b []trace.Event) float64 {
	var t float64
	for _, e := range b {
		t += e.End - e.Start
	}
	return t
}

// round refreshes the tree bottom-up and records freshness: the wall time
// from when a leaf batch was due until the root's cube accounts for the
// leaf's busy time up to that batch.
func (s *fleetSys) round(ctx context.Context, st opState) error {
	o := s.tr.start("bench.round", spanRef{})
	defer s.tr.finish(o)
	start := time.Now()
	for _, m := range s.mids {
		t := time.Now()
		so := s.tr.start("federate.mid_scrape", o.ref)
		m.ScrapeAll(withSpan(ctx, so.ref))
		s.tr.finish(so)
		s.rec.sample(st, "federate.mid_scrape_ms", ms(time.Since(t)))
	}
	t := time.Now()
	so := s.tr.start("federate.root_scrape", o.ref)
	s.root.ScrapeAll(withSpan(ctx, so.ref))
	s.tr.finish(so)
	s.rec.sample(st, "federate.root_scrape_ms", ms(time.Since(t)))
	t = time.Now()
	so = s.tr.start("federate.merge", o.ref)
	snap := s.root.Snapshot()
	s.tr.finish(so)
	end := time.Now()
	s.rec.sample(st, "federate.root_merge_ms", ms(end.Sub(t)))
	s.rec.sample(st, "round_ms", ms(end.Sub(start)))

	if err := s.health(st); err != nil {
		return err
	}
	if snap.Cube == nil {
		return fmt.Errorf("root snapshot has no cube")
	}
	for l := range s.leaves {
		visible, err := leafBusy(snap, l)
		if err != nil {
			return err
		}
		s.mu.Lock()
		q := s.pending[l]
		i := 0
		for ; i < len(q) && q[i].cum <= visible; i++ {
			if st.measured && q[i].measured {
				s.rec.op(st, end.Sub(q[i].at), nil)
			}
		}
		s.pending[l] = append(q[:0], q[i:]...)
		s.mu.Unlock()
	}
	return nil
}

// leafBusy is leaf l's total busy time in the root cube: the sum over its
// ranks, which the two tiers place at offset l × ranks per leaf.
func leafBusy(snap *monitor.Snapshot, l int) (float64, error) {
	var t float64
	for p := l * fleetRanksPerLeaf; p < (l+1)*fleetRanksPerLeaf && p < snap.Cube.NumProcs(); p++ {
		v, err := snap.Cube.ProcTotalTime(p)
		if err != nil {
			return 0, err
		}
		t += v
	}
	return t, nil
}

// health turns federator scrape failures into a round error and samples
// scrape latency and the bytes the round moved.
func (s *fleetSys) health(st opState) error {
	var bytes uint64
	for _, f := range append([]*federate.Federator{s.root}, s.mids...) {
		for _, h := range f.Health() {
			if h.LastError != "" {
				return fmt.Errorf("scrape of %s failed: %s", h.Name, h.LastError)
			}
			bytes += h.Bytes
			s.rec.sample(st, "federate.endpoint_scrape_ms", h.ScrapeMillis)
		}
	}
	s.rec.sample(st, "federate.bytes_per_round", float64(bytes-s.lastBytes))
	s.lastBytes = bytes
	return nil
}

// run refreshes the tree back to back while the generator emits. The tree
// is never idle, so a round's latency does not include waking idle CPUs,
// and a batch waits at most for the round under way and the next one.
func (s *fleetSys) run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Open loop: tick k is due at start + k·tick whatever the tree
		// is doing; a late tick is sent late, never skipped.
		start := time.Now()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * fleetTick)
			if !sleepUntil(ctx, due) {
				return
			}
			st := s.rec.begin()
			s.rec.sample(st, "bench.gen_late_ms", ms(time.Since(due)))
			s.emit(st.measured, due)
		}
	}()
	for ctx.Err() == nil {
		st := s.rec.begin()
		err := s.round(ctx, st)
		if ctx.Err() != nil {
			break // the run ended mid-round; the drain round checks the tree
		}
		s.rec.check(err)
	}
	wg.Wait()
}

func (s *fleetSys) finish(res *result) {
	rec := s.rec
	// Drain: one more round after the last tick must make everything
	// visible, and the root must then equal an oracle collector that
	// folded every emitted event itself.
	rec.check(s.round(context.Background(), opState{}))
	s.mu.Lock()
	emitted := s.emitted
	left := 0
	for _, q := range s.pending {
		left += len(q)
	}
	s.mu.Unlock()
	rec.checkf(left == 0, "%d leaf batches never became visible at the root", left)
	rec.check(s.checkOracle(emitted))

	for _, name := range []string{"round_ms", "federate.mid_scrape_ms", "federate.root_scrape_ms", "federate.root_merge_ms"} {
		res.setLatency(name, "ms", rec.samplesOf(name))
	}
	lat := sortedCopy(rec.samplesOf("bench.gen_late_ms"))
	res.set("bench.gen_late_ms.p99", percentile(lat, 0.99), "ms", len(lat))
	sc := sortedCopy(rec.samplesOf("federate.endpoint_scrape_ms"))
	res.set("federate.endpoint_scrape_ms.p99", percentile(sc, 0.99), "ms", len(sc))
	// Rounds that find nothing new move no bytes, so the mean describes the
	// traffic better than the median.
	var total float64
	b := rec.samplesOf("federate.bytes_per_round")
	for _, v := range b {
		total += v
	}
	res.set("federate.bytes_per_round", total/float64(max(len(b), 1)), "bytes", len(b))
}

// checkOracle compares the root's cube and window series, bit for bit,
// with one collector fed every emitted tick, namespaced and rank-offset
// exactly as the federation tiers do it.
func (s *fleetSys) checkOracle(ticks int) error {
	var regions []string
	for l := 0; l < fleetLeaves; l++ {
		for _, r := range fleetRegions {
			regions = append(regions, leafName(l)+"/"+r)
		}
	}
	oracle := monitor.NewCollector(monitor.Options{
		Window:     fleetTicksPerWindow * fleetUnit,
		Regions:    regions,
		Activities: fleetActivities,
	})
	for k := 0; k < ticks; k++ {
		for l, b := range s.tickBatches(k) {
			for i := range b {
				b[i].Rank += l * fleetRanksPerLeaf
				b[i].Region = leafName(l) + "/" + b[i].Region
			}
			oracle.RecordBatch(b)
		}
	}
	want := oracle.Snapshot()
	got := s.root.Snapshot()
	if err := cubesBitEqual(got.Cube, want.Cube); err != nil {
		return fmt.Errorf("root cube differs from the all-events oracle: %w", err)
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		return fmt.Errorf("root window series differs from the all-events oracle")
	}
	return nil
}

// cubesBitEqual requires identical axes, bit-identical cells and program
// time.
func cubesBitEqual(got, want *trace.Cube) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing cube")
	}
	if !reflect.DeepEqual(got.Regions(), want.Regions()) || !reflect.DeepEqual(got.Activities(), want.Activities()) ||
		got.NumProcs() != want.NumProcs() {
		return fmt.Errorf("axes differ: %d×%d×%d vs %d×%d×%d", got.NumRegions(), got.NumActivities(), got.NumProcs(),
			want.NumRegions(), want.NumActivities(), want.NumProcs())
	}
	for i := 0; i < want.NumRegions(); i++ {
		for j := 0; j < want.NumActivities(); j++ {
			gv, _ := got.ProcTimes(i, j)
			wv, _ := want.ProcTimes(i, j)
			for p := range wv {
				if math.Float64bits(gv[p]) != math.Float64bits(wv[p]) {
					return fmt.Errorf("cell (%d,%d,%d) = %v, want %v", i, j, p, gv[p], wv[p])
				}
			}
		}
	}
	if math.Float64bits(got.ProgramTime()) != math.Float64bits(want.ProgramTime()) {
		return fmt.Errorf("program time %v, want %v", got.ProgramTime(), want.ProgramTime())
	}
	return nil
}

func (s *fleetSys) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	closeClient(s.client)
}
