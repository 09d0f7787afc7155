package main

// The query workload: open-loop HTTP reads at a fixed rate against one
// 128-rank collector whose window ring is full, while a writer adds one
// window of events twice a second on average, so every write publishes a new
// snapshot generation and invalidates the memoized analysis. The work is
// in snapshot build, the phase segmenter, the dispersion views, the
// diagnosis and the endpoints' encoding: reads beside writes.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

const (
	queryRanks = 128
	// queryPreload fills the full-resolution ring and half a coarse tail.
	queryPreload = temporal.DefaultWindowCap + temporal.DefaultWindowCap/2
	// queryRate is the request rate; queryWrites the window appends per
	// second.
	queryRate   = 60
	queryWrites = 2
	// queryMaxInflight bounds the requests waiting for a connection. When
	// it is reached the generator waits for one to finish: the requests
	// behind are still timed from when they were due, so a host that falls
	// behind shows in the latencies, not as failed requests.
	queryMaxInflight = 64
	// queryPhase windows make one phase; the straggling rank alternates
	// between two ranks from phase to phase.
	queryPhase     = 64
	queryStraggle  = 3.0
	queryTargetID  = 0.02
	queryWorkScale = 0.25 // keeps every rank's work inside its window
)

// queryPaths is the request mix, taken round-robin.
var queryPaths = []string{"/metrics", "/diagnose.json", "/phases.json", "/timeline.json", "/delta"}

var queryCells = []cell{
	{region: "solve", activity: "computation", share: 0.7},
	{region: "exchange", activity: "communication", share: 0.3},
}

type querySys struct {
	tr  *tracer
	rec *recorder

	col    *monitor.Collector
	srv    *httptest.Server
	client *http.Client
	// phaseWork[k] is the per-rank work of a window in a phase of parity k.
	phaseWork [2][]float64
	// writeSeed seeds the gaps between the writer's appends.
	writeSeed int64

	wmu     sync.Mutex
	windows int // windows recorded so far

	dmu   sync.Mutex
	delta *tracefmt.DeltaState // the state the /delta requests build on
}

func prepareQuery(seed int64) (buildFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	base, err := rankWork(rng, queryRanks, queryTargetID)
	if err != nil {
		return nil, err
	}
	var phaseWork [2][]float64
	a := rng.Intn(queryRanks)
	b := (a + 1 + rng.Intn(queryRanks-1)) % queryRanks
	for k, straggler := range []int{a, b} {
		w := make([]float64, queryRanks)
		for p, v := range base {
			w[p] = v * queryWorkScale
		}
		w[straggler] *= queryStraggle
		phaseWork[k] = w
	}
	writeSeed := rng.Int63()
	return func(tr *tracer, rec *recorder) (system, error) { return buildQuery(phaseWork, writeSeed, tr, rec) }, nil
}

// buildQuery preloads the collector, generating its windows as it goes:
// held all at once they would take more memory than the collector.
func buildQuery(phaseWork [2][]float64, writeSeed int64, tr *tracer, rec *recorder) (system, error) {
	s := &querySys{tr: tr, rec: rec, client: newClient(), phaseWork: phaseWork, writeSeed: writeSeed}
	var regions, activities []string
	for _, c := range queryCells {
		regions = append(regions, c.region)
		activities = append(activities, c.activity)
	}
	s.col = monitor.NewCollector(monitor.Options{Window: 1, Regions: regions, Activities: activities})
	for w := 0; w < queryPreload; w++ {
		s.col.RecordBatch(s.window())
		if w%512 == 511 {
			s.col.Fold()
		}
	}
	src := &tracedSource{t: tr, src: s.col, name: "monitor.snapshot", analyze: true}
	// The first snapshot folds and analyzes the preloaded history cold.
	src.Snapshot()
	s.srv = httptest.NewServer(src.handler(serve.Mux(src, serve.WithWindow(s.col.Window()))))
	return s, nil
}

// window returns the events of the next window: every rank's work for
// one unit of virtual time.
func (s *querySys) window() []trace.Event {
	s.wmu.Lock()
	w := s.windows
	s.windows++
	s.wmu.Unlock()
	return appendIteration(make([]trace.Event, 0, queryRanks*len(queryCells)), s.phaseWork[(w/queryPhase)%2], queryCells, 0, float64(w), false)
}

func (s *querySys) run(ctx context.Context) {
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The gaps between writes are drawn from the seed, uniformly
		// between half and one and a half times the mean. With a fixed
		// period about one run in ten kept a slower tail from start to
		// end, with more GC CPU, as if locked into one phase of the
		// rebuilds against the collector's cycles; with drawn gaps, none
		// of twenty runs did.
		rng := rand.New(rand.NewSource(s.writeSeed))
		mean := float64(time.Second / queryWrites)
		for next := start; ; {
			next = next.Add(time.Duration(mean * (0.5 + rng.Float64())))
			if !sleepUntil(ctx, next) {
				return
			}
			o := s.tr.start("monitor.record_batch", spanRef{})
			s.col.RecordBatch(s.window())
			s.tr.finish(o)
		}
	}()
	// The schedule: request i is sent at start + i/rate whatever the
	// earlier requests are doing, and waits for one of the client's two
	// connections; its latency counts from when it was due, so a stall
	// shows in the requests queued behind it.
	go func() {
		defer wg.Done()
		var reqs sync.WaitGroup
		defer reqs.Wait()
		inflight := make(chan struct{}, queryMaxInflight)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / queryRate)
			if !sleepUntil(ctx, due) {
				return
			}
			st := s.rec.begin()
			s.rec.sample(st, "bench.gen_late_ms", ms(time.Since(due)))
			select {
			case inflight <- struct{}{}:
			case <-ctx.Done():
				return
			}
			reqs.Add(1)
			go func(path string) {
				defer reqs.Done()
				defer func() { <-inflight }()
				err := s.request(ctx, path, st)
				if ctx.Err() == nil {
					s.rec.classOp(st, path, time.Since(due), err)
				}
			}(queryPaths[i%len(queryPaths)])
		}
	}()
	wg.Wait()
}

// request performs one read and checks that its body decodes.
func (s *querySys) request(ctx context.Context, path string, st opState) error {
	o := s.tr.start("bench.request", spanRef{})
	defer s.tr.finish(o)
	ctx = withSpan(ctx, o.ref)
	hdr := http.Header{}
	var base *tracefmt.DeltaState
	if path == "/timeline.json" {
		hdr.Set("Accept-Encoding", "gzip")
	}
	url := s.srv.URL + path
	if path == "/delta" {
		s.dmu.Lock()
		base = s.delta
		s.dmu.Unlock()
		if base != nil {
			url += fmt.Sprintf("?since=b%x-g%d", base.Boot, base.Gen)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header = hdr
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	switch {
	case path == "/delta" && resp.StatusCode == http.StatusNotModified:
		return nil
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	switch path {
	case "/metrics":
		return checkMetricsText(body)
	case "/timeline.json":
		if resp.Header.Get("Content-Encoding") != "gzip" {
			return fmt.Errorf("GET %s: gzip not negotiated", path)
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
	case "/delta":
		s.rec.sample(st, "serve.delta_bytes", float64(len(body)))
		next, err := tracefmt.DecodeSnapshot(body, base)
		if err != nil {
			return fmt.Errorf("GET %s: applying on generation %d: %w", path, genOf(base), err)
		}
		if tag := strings.Trim(resp.Header.Get("ETag"), `"`); tag != fmt.Sprintf("b%x-g%d", next.Boot, next.Gen) {
			return fmt.Errorf("GET %s: decoded generation %d does not match ETag %s", path, next.Gen, tag)
		}
		s.dmu.Lock()
		if s.delta == nil || next.Gen > s.delta.Gen {
			s.delta = next
		}
		s.dmu.Unlock()
		return nil
	}
	if !json.Valid(body) {
		return fmt.Errorf("GET %s: body is not JSON", path)
	}
	return nil
}

func genOf(s *tracefmt.DeltaState) uint64 {
	if s == nil {
		return 0
	}
	return s.Gen
}

func (s *querySys) finish(res *result) {
	for _, path := range queryPaths {
		res.setLatency("query."+endpointName(path)+"_ms", "ms", s.rec.classMs(path))
	}
	lat := sortedCopy(s.rec.samplesOf("bench.gen_late_ms"))
	res.set("bench.gen_late_ms.p99", percentile(lat, 0.99), "ms", len(lat))
	b := s.rec.samplesOf("serve.delta_bytes")
	res.set("serve.delta_bytes.p50", median(b), "bytes", len(b))
	// The /delta chain must have tracked the collector: one last delta on
	// top of the client's state equals the final snapshot.
	snap := s.col.Snapshot()
	err := s.request(context.Background(), "/delta", opState{})
	if err == nil {
		s.dmu.Lock()
		err = cubesBitEqual(s.delta.Cube, snap.Cube)
		s.dmu.Unlock()
	}
	s.rec.check(errorf(err, "final /delta state"))
}

func (s *querySys) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	closeClient(s.client)
}
