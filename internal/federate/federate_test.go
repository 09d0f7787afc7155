package federate

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loadimb/internal/core"
	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// testClient bounds every test request so a hung server fails fast.
var testClient = &http.Client{Timeout: 10 * time.Second}

// jobSpec is one simulated imbamon instance: a name, its processor count
// and the events its collector has folded.
type jobSpec struct {
	name   string
	procs  int
	events []trace.Event
}

// jobEvents builds a deterministic, imbalanced event set: every rank runs
// init and solve, with computation skewed across ranks and a little
// communication whose length varies by rank parity.
func jobEvents(procs int, skew float64) []trace.Event {
	var evs []trace.Event
	for p := 0; p < procs; p++ {
		comp := 1 + skew*float64(p)
		comm := 0.1 + 0.2*float64(p%3)
		evs = append(evs,
			trace.Event{Rank: p, Region: "init", Activity: "comp", Start: 0, End: 0.5},
			trace.Event{Rank: p, Region: "solve", Activity: "comp", Start: 0.5, End: 0.5 + comp},
			trace.Event{Rank: p, Region: "solve", Activity: "comm", Start: 0.5 + comp, End: 0.5 + comp + comm},
		)
	}
	return evs
}

// startEndpoint serves a collector holding the job's events through the
// real monitor handler set.
func startEndpoint(t *testing.T, job jobSpec) *httptest.Server {
	t.Helper()
	srv, _ := startEndpointCollector(t, job)
	return srv
}

// startEndpointCollector is startEndpoint exposing the collector too, for
// tests that push more events between scrape rounds.
func startEndpointCollector(t *testing.T, job jobSpec) (*httptest.Server, *monitor.Collector) {
	t.Helper()
	c := monitor.NewCollector(monitor.Options{})
	for _, e := range job.events {
		c.Record(e)
	}
	srv := httptest.NewServer(serve.NewHandler(c))
	t.Cleanup(srv.Close)
	return srv, c
}

// mergedOracle merges the jobs' raw event logs offline the same way
// federation merges their cubes: ranks offset by the preceding jobs'
// processor counts, regions namespaced by job name.
func mergedOracle(t *testing.T, jobs []jobSpec) *trace.Cube {
	t.Helper()
	var lg trace.Log
	offset := 0
	for _, job := range jobs {
		for _, e := range job.events {
			e.Rank += offset
			e.Region = job.name + "/" + e.Region
			if err := lg.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		offset += job.procs
	}
	cube, err := lg.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// compareAnalyses checks every paper index of the two cubes to tol.
func compareAnalyses(t *testing.T, got, want *trace.Cube, tol float64) {
	t.Helper()
	ga, err := core.Analyze(got, core.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("analyzing federated cube: %v", err)
	}
	wa, err := core.Analyze(want, core.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("analyzing oracle cube: %v", err)
	}
	if math.Abs(got.ProgramTime()-want.ProgramTime()) > tol {
		t.Errorf("program time %g, want %g", got.ProgramTime(), want.ProgramTime())
	}
	if len(ga.Regions) != len(wa.Regions) || len(ga.Activities) != len(wa.Activities) {
		t.Fatalf("analysis shape %dx%d, want %dx%d",
			len(ga.Regions), len(ga.Activities), len(wa.Regions), len(wa.Activities))
	}
	for k := range ga.Regions {
		g, w := ga.Regions[k], wa.Regions[k]
		if g.Name != w.Name || g.Defined != w.Defined {
			t.Fatalf("region %d is %q/%v, want %q/%v", k, g.Name, g.Defined, w.Name, w.Defined)
		}
		if !w.Defined {
			continue
		}
		if math.Abs(g.ID-w.ID) > tol || math.Abs(g.SID-w.SID) > tol {
			t.Errorf("region %q ID_C/SID_C = %g/%g, want %g/%g", g.Name, g.ID, g.SID, w.ID, w.SID)
		}
	}
	for k := range ga.Activities {
		g, w := ga.Activities[k], wa.Activities[k]
		if g.Name != w.Name || g.Defined != w.Defined {
			t.Fatalf("activity %d is %q/%v, want %q/%v", k, g.Name, g.Defined, w.Name, w.Defined)
		}
		if !w.Defined {
			continue
		}
		if math.Abs(g.ID-w.ID) > tol || math.Abs(g.SID-w.SID) > tol {
			t.Errorf("activity %q ID_A/SID_A = %g/%g, want %g/%g", g.Name, g.ID, g.SID, w.ID, w.SID)
		}
	}
	for i := range wa.Processors.ByRegion {
		for p := range wa.Processors.ByRegion[i] {
			g, w := ga.Processors.ByRegion[i][p], wa.Processors.ByRegion[i][p]
			if g.Defined != w.Defined {
				t.Fatalf("ID_P (%d,%d) defined=%v, want %v", i, p, g.Defined, w.Defined)
			}
			if w.Defined && math.Abs(g.ID-w.ID) > tol {
				t.Errorf("ID_P (%d,%d) = %g, want %g", i, p, g.ID, w.ID)
			}
		}
	}
	gTotals := make([]float64, got.NumProcs())
	wTotals := make([]float64, want.NumProcs())
	for p := range gTotals {
		gv, err := got.ProcTotalTime(p)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.ProcTotalTime(p)
		if err != nil {
			t.Fatal(err)
		}
		gTotals[p], wTotals[p] = gv, wv
	}
	if math.Abs(stats.Gini.Of(gTotals)-stats.Gini.Of(wTotals)) > tol {
		t.Errorf("gini = %g, want %g", stats.Gini.Of(gTotals), stats.Gini.Of(wTotals))
	}
}

// TestFederationE2E is the acceptance test: three simulated imbamon
// endpoints are federated into one cube whose paper indices match
// core.Analyze of the offline-merged logs to 1e-9; killing one endpoint
// mid-run degrades it to stale in /healthz without corrupting the
// aggregate of the remaining two.
func TestFederationE2E(t *testing.T) {
	jobs := []jobSpec{
		{name: "job0", procs: 3},
		{name: "job1", procs: 4},
		{name: "job2", procs: 2},
	}
	skews := []float64{0.2, 0.65, 0}
	var endpoints []Endpoint
	var servers []*httptest.Server
	for i := range jobs {
		jobs[i].events = jobEvents(jobs[i].procs, skews[i])
		srv := startEndpoint(t, jobs[i])
		servers = append(servers, srv)
		endpoints = append(endpoints, Endpoint{Name: jobs[i].name, URL: srv.URL})
	}
	f, err := New(Options{
		Endpoints:   endpoints,
		Timeout:     5 * time.Second,
		MaxFailures: 2,
		Client:      testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.ScrapeAll(ctx)

	const tol = 1e-9
	snap := f.Snapshot()
	if snap.Cube == nil {
		t.Fatal("no federated cube after scraping all endpoints")
	}
	oracle := mergedOracle(t, jobs)
	if !snap.Cube.EqualWithin(oracle, tol) {
		t.Fatalf("federated cube differs from the offline merged-log aggregate\nfed %v procs T=%g, oracle %v procs T=%g",
			snap.Cube.NumProcs(), snap.Cube.ProgramTime(), oracle.NumProcs(), oracle.ProgramTime())
	}
	compareAnalyses(t, snap.Cube, oracle, tol)

	// The federated exposition serves the same cube.
	fedSrv := httptest.NewServer(Handler(f))
	defer fedSrv.Close()
	resp, err := testClient.Get(fedSrv.URL + "/cube.json")
	if err != nil {
		t.Fatal(err)
	}
	served, err := tracefmt.ReadCubeJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("served federated cube does not parse: %v", err)
	}
	if !served.EqualWithin(oracle, tol) {
		t.Error("served federated cube differs from the oracle")
	}
	health := getHealthz(t, fedSrv.URL)
	if health.Status != "ok" || len(health.Endpoints) != 3 {
		t.Fatalf("healthz before degradation = %+v", health)
	}
	for _, ep := range health.Endpoints {
		if ep.Stale || !ep.HasCube || ep.Scrapes != 1 || ep.LastSuccess == "" {
			t.Errorf("endpoint %q health = %+v, want one fresh scrape", ep.Name, ep)
		}
	}

	// Kill job1 mid-run: after MaxFailures consecutive scrape failures it
	// must degrade to stale, and the aggregate must become exactly the
	// offline merge of the two surviving jobs (job2's ranks re-offset).
	servers[1].Close()
	f.ScrapeAll(ctx)
	f.ScrapeAll(ctx)
	health = getHealthz(t, fedSrv.URL)
	if health.Status != "degraded" {
		t.Fatalf("healthz status after kill = %q, want degraded", health.Status)
	}
	for _, ep := range health.Endpoints {
		wantStale := ep.Name == "job1"
		if ep.Stale != wantStale {
			t.Errorf("endpoint %q stale = %v, want %v (%+v)", ep.Name, ep.Stale, wantStale, ep)
		}
		if wantStale && (ep.ConsecutiveFailures < 2 || ep.LastError == "") {
			t.Errorf("stale endpoint health lacks failure detail: %+v", ep)
		}
	}
	snap = f.Snapshot()
	if snap.Cube == nil {
		t.Fatal("aggregate vanished after one endpoint died")
	}
	survivors := mergedOracle(t, []jobSpec{jobs[0], jobs[2]})
	if !snap.Cube.EqualWithin(survivors, tol) {
		t.Fatalf("degraded aggregate corrupted: %d procs T=%g, want %d procs T=%g",
			snap.Cube.NumProcs(), snap.Cube.ProgramTime(), survivors.NumProcs(), survivors.ProgramTime())
	}
	compareAnalyses(t, snap.Cube, survivors, tol)
}

func getHealthz(t *testing.T, base string) healthzPayload {
	t.Helper()
	resp, err := testClient.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload healthzPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestFederatorKeepsLastCubeUntilStale: a failing endpoint's last good
// cube stays in the aggregate while its consecutive failures are below
// MaxFailures, then drops out.
func TestFederatorKeepsLastCubeUntilStale(t *testing.T) {
	good := jobSpec{name: "good", procs: 2, events: jobEvents(2, 0.3)}
	flaky := jobSpec{name: "flaky", procs: 2, events: jobEvents(2, 0.8)}
	goodSrv := startEndpoint(t, good)

	c := monitor.NewCollector(monitor.Options{})
	for _, e := range flaky.events {
		c.Record(e)
	}
	failing := false
	inner := serve.NewHandler(c)
	flakySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flakySrv.Close()

	f, err := New(Options{
		Endpoints: []Endpoint{
			{Name: "good", URL: goodSrv.URL},
			{Name: "flaky", URL: flakySrv.URL},
		},
		MaxFailures: 3,
		Client:      testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.ScrapeAll(ctx)
	both := mergedOracle(t, []jobSpec{good, flaky})
	if snap := f.Snapshot(); snap.Cube == nil || !snap.Cube.EqualWithin(both, 1e-9) {
		t.Fatal("aggregate of two healthy endpoints wrong")
	}

	failing = true
	// Two failures: below MaxFailures, the last good cube must survive.
	f.ScrapeAll(ctx)
	f.ScrapeAll(ctx)
	if snap := f.Snapshot(); snap.Cube == nil || !snap.Cube.EqualWithin(both, 1e-9) {
		t.Error("endpoint dropped from the aggregate before reaching MaxFailures")
	}
	// Third failure: stale, only the good job remains.
	f.ScrapeAll(ctx)
	onlyGood := mergedOracle(t, []jobSpec{good})
	if snap := f.Snapshot(); snap.Cube == nil || !snap.Cube.EqualWithin(onlyGood, 1e-9) {
		t.Error("stale endpoint still poisons the aggregate")
	}
	// Recovery: one success rejoins the aggregate and resets the streak.
	failing = false
	f.ScrapeAll(ctx)
	if snap := f.Snapshot(); snap.Cube == nil || !snap.Cube.EqualWithin(both, 1e-9) {
		t.Error("recovered endpoint did not rejoin the aggregate")
	}
	for _, ep := range f.Health() {
		if ep.Stale || ep.ConsecutiveFailures != 0 {
			t.Errorf("endpoint %q not reset after recovery: %+v", ep.Name, ep)
		}
	}
}

// TestScrapeTimeout: a hanging endpoint fails the scrape after Timeout
// instead of blocking the round.
func TestScrapeTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	f, err := New(Options{
		Endpoints: []Endpoint{{Name: "slow", URL: slow.URL}},
		Timeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	f.ScrapeAll(context.Background())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("scrape of a hanging endpoint took %v", elapsed)
	}
	ep := f.Health()[0]
	if ep.Failures != 1 || ep.LastError == "" {
		t.Errorf("timeout not recorded: %+v", ep)
	}
}

// TestSnapshotEmpty: before any successful scrape the federator serves
// the same "no data" shape as an empty collector, and the monitor
// handlers answer 503 rather than panicking.
func TestSnapshotEmpty(t *testing.T) {
	f, err := New(Options{Endpoints: []Endpoint{{Name: "a", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if snap := f.Snapshot(); snap.Cube != nil {
		t.Fatal("cube before any scrape")
	}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
	resp, err := testClient.Get(srv.URL + "/cube.json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/cube.json with no data = %d, want 503", resp.StatusCode)
	}
	health := getHealthz(t, srv.URL)
	if health.Status != "down" {
		t.Errorf("healthz status with no data = %q, want down", health.Status)
	}
	// /metrics still serves the federation families.
	resp, err = testClient.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), MetricEndpoints+" 1") {
		t.Errorf("metrics missing %s:\n%s", MetricEndpoints, body)
	}
}

// TestRunLoopPolls drives the real Run loop (timers, backoff, jitter)
// against live endpoints and checks it keeps scraping until canceled.
func TestRunLoopPolls(t *testing.T) {
	job := jobSpec{name: "job", procs: 2, events: jobEvents(2, 0.4)}
	srv := startEndpoint(t, job)
	f, err := New(Options{
		Endpoints: []Endpoint{{Name: "job", URL: srv.URL}},
		Interval:  5 * time.Millisecond,
		Timeout:   time.Second,
		Client:    testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.Health()[0].Scrapes >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run loop did not keep polling")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run loop did not stop on cancel")
	}
	if snap := f.Snapshot(); snap.Cube == nil {
		t.Error("no cube after polling")
	}
}

// TestBackoffBounds: the retry delay grows exponentially from
// Interval/4, caps at 4*Interval and stays within the jitter envelope
// [d/2, d].
func TestBackoffBounds(t *testing.T) {
	const interval = 400 * time.Millisecond
	f, err := New(Options{
		Endpoints: []Endpoint{{Name: "a", URL: "http://localhost:1"}},
		Interval:  interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 8; n++ {
		want := interval / 4 << (n - 1)
		if want > 4*interval {
			want = 4 * interval
		}
		for trial := 0; trial < 50; trial++ {
			got := f.backoff(n)
			if got < want/2 || got > want {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, got, want/2, want)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no endpoints accepted")
	}
	if _, err := New(Options{Endpoints: []Endpoint{{Name: "a"}}}); err == nil {
		t.Error("endpoint without URL accepted")
	}
	if _, err := New(Options{Endpoints: []Endpoint{
		{Name: "a", URL: "http://h1:1"},
		{Name: "a", URL: "http://h2:1"},
	}}); err == nil {
		t.Error("duplicate endpoint names accepted")
	}
	f, err := New(Options{Endpoints: []Endpoint{{URL: "http://node7:9190"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Health()[0].Name; got != "node7:9190" {
		t.Errorf("derived endpoint name = %q, want node7:9190", got)
	}
}

// TestNewBoundsDefault: a WindowCap or MaxBodyBytes of 0 or below
// selects the default bound; neither bound can be disabled.
func TestNewBoundsDefault(t *testing.T) {
	for _, v := range []int{0, -1} {
		f, err := New(Options{
			Endpoints:    []Endpoint{{Name: "a", URL: "http://h1:1"}},
			WindowCap:    v,
			MaxBodyBytes: int64(v),
		})
		if err != nil {
			t.Fatal(err)
		}
		if f.windowCap != temporal.DefaultWindowCap || f.maxBody != DefaultMaxBodyBytes {
			t.Errorf("option value %d: window cap %d, body bound %d; want the defaults %d and %d",
				v, f.windowCap, f.maxBody, temporal.DefaultWindowCap, DefaultMaxBodyBytes)
		}
	}
}

// TestFederationMetricsEscaping: endpoint names reach /metrics as label
// values, escaped the way the Prometheus text format defines — only
// backslash, double quote and newline — not with Go's %q rules, which
// would turn a tab into the invalid escape \t.
func TestFederationMetricsEscaping(t *testing.T) {
	var buf strings.Builder
	writeFederationMetrics(&buf, []EndpointHealth{{Name: "rack\t\"a\"\\1", Scrapes: 2}})
	want := MetricEndpointScrapes + "{endpoint=\"rack\t\\\"a\\\"\\\\1\"} 2\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, buf.String())
	}
}
