package main

// The ingest workload: one IngestClient streams pre-generated event
// batches over one Unix-socket connection into an IngestServer and its
// windowed Collector as fast as backpressure allows (a closed loop), while
// a 1 Hz scraper reads /metrics and /diagnose.json. Nearly all the work is
// in the wire codec, the producer ring, the fold and the window fold.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/stats"
	"loadimb/internal/trace"
)

const (
	ingestRanks      = 64
	ingestRegions    = 8
	ingestActivities = 4
	ingestBatch      = 4096
	// ingestCycle batches are generated once and replayed, shifted in
	// virtual time, for the whole run.
	ingestCycle = 16
	// ingestTargetID is the Euclidean ID_P the generated per-rank work
	// hits; the final cube must report it.
	ingestTargetID = 0.05
	// ingestWindowBatches batches make one temporal window: about eight
	// windows a second at the rate two cores sustain, so a run's windows
	// stay far below the ring cap and their cost does not change during
	// the run.
	ingestWindowBatches = 256
)

// ingestSocket returns an abstract Unix socket address, unique per
// process and call, so nothing is written to the file system.
var ingestSockets atomic.Uint64

func ingestSocket() string {
	return fmt.Sprintf("unix:@loadimb-bench-%d-%d", os.Getpid(), ingestSockets.Add(1))
}

// ingestInput is the generated stream: one cycle of batches, replayed
// shifted in virtual time for the whole run.
type ingestInput struct {
	regions, activities []string
	batches             [][]trace.Event
	iter                float64 // virtual time of one program iteration
	period              float64 // virtual time of one cycle
	window              float64 // temporal window width
}

type ingestSys struct {
	tr  *tracer
	rec *recorder
	in  *ingestInput

	col    *monitor.Collector
	ing    *monitor.IngestServer
	cl     *monitor.IngestClient
	srv    *httptest.Server
	client *http.Client

	sent     atomic.Uint64 // events handed to the client
	measured atomic.Uint64 // of which inside the measured interval
}

func prepareIngest(seed int64) (buildFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	work, err := rankWork(rng, ingestRanks, ingestTargetID)
	if err != nil {
		return nil, err
	}
	in := &ingestInput{regions: names("region", ingestRegions), activities: names("activity", ingestActivities)}
	cells := randomCells(rng, in.regions, in.activities)
	for _, w := range work { // one iteration spans the heaviest rank's work
		in.iter = math.Max(in.iter, w)
	}
	perBatch := ingestBatch / (ingestRanks * len(cells))
	in.period = float64(ingestCycle*perBatch) * in.iter
	in.window = float64(ingestWindowBatches*perBatch) * in.iter
	var t0 float64
	for b := 0; b < ingestCycle; b++ {
		batch := make([]trace.Event, 0, ingestBatch)
		for i := 0; i < perBatch; i++ {
			batch = appendIteration(batch, work, cells, 0, t0, false)
			t0 += in.iter
		}
		in.batches = append(in.batches, batch)
	}
	return func(tr *tracer, rec *recorder) (system, error) { return buildIngest(in, tr, rec) }, nil
}

func buildIngest(in *ingestInput, tr *tracer, rec *recorder) (system, error) {
	s := &ingestSys{tr: tr, rec: rec, in: in}
	s.col = monitor.NewCollector(monitor.Options{
		Window:     in.window,
		Regions:    in.regions,
		Activities: in.activities,
	})
	s.ing = monitor.NewIngestServer(s.col, monitor.IngestOptions{})
	spec := ingestSocket()
	if _, err := s.ing.Listen(spec); err != nil {
		s.close()
		return nil, err
	}
	var err error
	if s.cl, err = monitor.DialIngest(spec, monitor.ClientOptions{Batch: ingestBatch, FlushInterval: -1}); err != nil {
		s.close()
		return nil, err
	}
	src := &tracedSource{t: tr, src: s.col, name: "monitor.snapshot", analyze: true}
	s.srv = httptest.NewServer(src.handler(serve.Mux(src, serve.WithIngest(s.ing), serve.WithWindow(s.col.Window()))))
	s.client = newClient()
	return s, nil
}

func (s *ingestSys) run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.stream(ctx)
	}()
	go func() {
		defer wg.Done()
		s.scrape(ctx)
	}()
	wg.Wait()
}

// stream sends the replayed batches, each cycle shifted past the last,
// back to back: the next RecordBatch call starts when the last returns,
// so the socket and the server's backpressure set the rate. One operation
// is one call: how long handing a batch to the client held the sender up.
func (s *ingestSys) stream(ctx context.Context) {
	buf := make([]trace.Event, ingestBatch)
	for i := 0; ctx.Err() == nil; i++ {
		b := s.in.batches[i%len(s.in.batches)]
		shift := float64(i/len(s.in.batches)) * s.in.period
		for j, e := range b {
			e.Start += shift
			e.End += shift
			buf[j] = e
		}
		st := s.rec.begin()
		o := s.tr.start("monitor.client_batch", spanRef{})
		s.cl.RecordBatch(buf)
		s.tr.finish(o)
		s.rec.op(st, time.Since(st.at), s.cl.Err())
		s.sent.Add(ingestBatch)
		if st.measured {
			s.measured.Add(ingestBatch)
		}
	}
}

// scrape reads /metrics and /diagnose.json once a second and samples the
// ingest backlog and stall counter.
func (s *ingestSys) scrape(ctx context.Context) {
	next := time.Now()
	for {
		next = next.Add(time.Second)
		if !sleepUntil(ctx, next) {
			return
		}
		st := s.rec.begin()
		body, err := s.get(ctx, "/metrics")
		if err == nil {
			err = checkMetricsText(body)
		}
		if ctx.Err() != nil {
			return // the run ended mid-request
		}
		s.rec.check(err)
		if err == nil {
			if snap := s.col.Latest(); snap != nil {
				s.rec.sample(st, "monitor.ingest_backlog_events", float64(s.ing.Events())-float64(snap.Events))
			}
			if v, ok := metricValue(body, monitor.MetricIngestStallsTotal); ok {
				s.rec.sample(st, "monitor.ingest_stalls", v)
			}
		}
		body, err = s.get(ctx, "/diagnose.json")
		if err == nil && !json.Valid(body) {
			err = fmt.Errorf("/diagnose.json: body is not JSON")
		}
		if ctx.Err() != nil {
			return
		}
		s.rec.check(err)
	}
}

func (s *ingestSys) get(ctx context.Context, path string) ([]byte, error) {
	o := s.tr.start("bench.scrape", spanRef{})
	defer s.tr.finish(o)
	return httpGet(withSpan(ctx, o.ref), s.client, s.srv.URL+path)
}

func (s *ingestSys) finish(res *result) {
	rec := s.rec
	rec.check(errorf(s.cl.Close(), "closing the ingest client"))
	s.cl = nil
	sent := s.sent.Load()
	waitDecoded(s.ing, sent)
	rec.check(errorf(s.ing.Close(), "closing the ingest server"))
	snap := s.col.Snapshot()
	rec.checkf(s.ing.Events() == sent, "decoded %d events, sent %d", s.ing.Events(), sent)
	rec.checkf(snap.Events == sent, "folded %d events, decoded %d", snap.Events, s.ing.Events())
	rec.checkf(snap.Dropped == 0 && s.ing.Dropped() == 0, "dropped %d malformed and %d ring-overflow events", snap.Dropped, s.ing.Dropped())
	id, err := cubeID(snap)
	rec.check(err)
	if err == nil {
		rec.checkf(math.Abs(id-ingestTargetID) <= 1e-9, "final ID_P %.15g, generator target %g", id, ingestTargetID)
	}
	res.set("ingest_eps", float64(s.measured.Load())/res.Seconds, "events/s", 1)
	v := rec.samplesOf("monitor.ingest_backlog_events")
	res.set("monitor.ingest_backlog_events.p50", median(v), "events", len(v))
	if v := rec.samplesOf("monitor.ingest_stalls"); len(v) > 0 {
		res.set("monitor.ingest_stalls", v[len(v)-1]-v[0], "count", len(v))
	}
}

func (s *ingestSys) close() {
	if s.cl != nil {
		waitConnected(s.ing)
		_ = s.cl.Close()
	}
	if s.ing != nil {
		_ = s.ing.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.client != nil {
		closeClient(s.client)
	}
}

// waitConnected waits, up to a deadline, until the server has taken on
// the client's connection. Closing an IngestServer while its accept loop
// is still registering a just-accepted connection races the loop's
// WaitGroup.Add against Close's Wait, so every close waits for this
// first; it is not part of the timed set-up, which it would fill with
// scheduling noise.
func waitConnected(ing *monitor.IngestServer) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := ing.WriteMetrics(&buf); err != nil {
			return
		}
		if v, ok := metricValue(buf.Bytes(), monitor.MetricIngestConnsActive); ok && v >= 1 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitDecoded waits, up to a deadline, until the server has decoded sent
// events. Closing an IngestServer closes its connections, discarding
// frames still unread in the socket, so a drain must come first.
func waitDecoded(ing *monitor.IngestServer, sent uint64) {
	deadline := time.Now().Add(30 * time.Second)
	for ing.Events() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// cubeID is the Euclidean ID_P of a snapshot's per-processor totals.
func cubeID(snap *monitor.Snapshot) (float64, error) {
	if snap.Cube == nil {
		return 0, fmt.Errorf("snapshot has no cube")
	}
	totals := make([]float64, snap.Cube.NumProcs())
	for p := range totals {
		t, err := snap.Cube.ProcTotalTime(p)
		if err != nil {
			return 0, err
		}
		totals[p] = t
	}
	return stats.EuclideanFromBalance(totals)
}

// httpGet fetches url and returns the body, failing on any status but
// 200.
func httpGet(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// checkMetricsText checks a Prometheus text exposition: every sample line
// is a name, optional labels and a parseable value, and there is at least
// one loadimb family.
func checkMetricsText(body []byte) error {
	families := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("/metrics: malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return fmt.Errorf("/metrics: bad value in %q", line)
		}
		if strings.HasPrefix(line, "loadimb_") {
			families++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if families == 0 {
		return fmt.Errorf("/metrics: no loadimb samples")
	}
	return nil
}

// metricValue returns the value of an unlabeled sample in an exposition.
func metricValue(body []byte, name string) (float64, bool) {
	prefix := []byte(name + " ")
	for _, line := range bytes.Split(body, []byte("\n")) {
		if bytes.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(string(line[len(prefix):]), 64)
			return v, err == nil
		}
	}
	return 0, false
}
