package federate

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// newTestFederator builds a federator over one endpoint with the given
// extra options applied.
func newTestFederator(t *testing.T, url string, mutate func(*Options)) *Federator {
	t.Helper()
	opts := Options{
		Endpoints: []Endpoint{{Name: "job", URL: url}},
		Timeout:   5 * time.Second,
		Client:    testClient,
	}
	if mutate != nil {
		mutate(&opts)
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// jsonScrapeBytes fetches the endpoint's /cube.json and /windows.json the
// way a JSON scraper would, gzip-negotiated, and returns the body bytes
// on the wire: the full-document cost the /delta path is measured
// against.
func jsonScrapeBytes(tb testing.TB, base string) uint64 {
	tb.Helper()
	var total uint64
	for _, doc := range []string{"/cube.json", "/windows.json"} {
		req, err := http.NewRequest(http.MethodGet, base+doc, nil)
		if err != nil {
			tb.Fatal(err)
		}
		// Set explicitly, the header also stops the transport from
		// decompressing: the count is what crossed the wire.
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := testClient.Do(req)
		if err != nil {
			tb.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
			tb.Fatalf("GET %s%s: status %d, encoding %q, err %v",
				base, doc, resp.StatusCode, resp.Header.Get("Content-Encoding"), err)
		}
		total += uint64(n)
	}
	return total
}

// TestScrapeDeltaSavesBytes: once a client holds a snapshot, follow-up
// scrapes of a slightly-changed endpoint must move far fewer bytes over
// the delta path than refetching the endpoint's full JSON documents
// (gzip'd) would — the whole point of LIFP — and the federated cube must
// be exactly the endpoint's own.
func TestScrapeDeltaSavesBytes(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.25})
	for _, e := range jobEvents(16, 0.5) {
		c.Record(e)
	}
	srv := httptest.NewServer(serve.NewHandler(c))
	defer srv.Close()

	f := newTestFederator(t, srv.URL, nil)
	ctx := context.Background()
	f.ScrapeAll(ctx)
	deltaBase := f.Health()[0].Bytes

	// A small change, then rescrape: the delta carries one cell and one
	// window, the JSON documents re-ship everything.
	var jsonIncr uint64
	for i := 0; i < 3; i++ {
		c.Record(trace.Event{Rank: 3, Region: "solve", Activity: "comp",
			Start: 20 + float64(i), End: 20.5 + float64(i)})
		f.ScrapeAll(ctx)
		jsonIncr += jsonScrapeBytes(t, srv.URL)
	}
	h := f.Health()[0]
	if h.Failures != 0 {
		t.Fatalf("delta scrapes failed: %+v", h)
	}
	deltaIncr := h.Bytes - deltaBase
	if deltaIncr == 0 || jsonIncr == 0 {
		t.Fatalf("no bytes moved: delta %d, json %d", deltaIncr, jsonIncr)
	}
	if deltaIncr*4 >= jsonIncr {
		t.Fatalf("delta path saved too little: %d bytes vs %d full-JSON bytes", deltaIncr, jsonIncr)
	}
	want, err := trace.Federate([]trace.JobCube{{Label: "job", Cube: c.Snapshot().Cube}})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Snapshot().Cube.EqualWithin(want, 0) {
		t.Fatal("delta-scraped cube diverged from the endpoint's own")
	}
}

// TestScrapeDeltaUnsupportedFails: /delta is the only scrape path, so an
// endpoint answering it with 404 fails like any broken endpoint — every
// scrape is counted as a failure with the status as last_error, the
// endpoint goes stale at MaxFailures and never contributes a cube, and
// no JSON document is fetched instead.
func TestScrapeDeltaUnsupportedFails(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{})
	for _, e := range jobEvents(4, 0.3) {
		c.Record(e)
	}
	inner := serve.NewHandler(c)
	var deltaProbes, otherRequests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/delta" {
			deltaProbes.Add(1)
			http.NotFound(w, r)
			return
		}
		otherRequests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	const maxFailures = 3
	f := newTestFederator(t, srv.URL, func(o *Options) { o.MaxFailures = maxFailures })
	ctx := context.Background()
	for round := 1; round <= maxFailures+1; round++ {
		f.ScrapeAll(ctx)
		h := f.Health()[0]
		if h.Scrapes != 0 || h.Failures != uint64(round) || h.ConsecutiveFailures != round {
			t.Fatalf("round %d: 404 not counted as a failure: %+v", round, h)
		}
		if !strings.Contains(h.LastError, "status 404") {
			t.Fatalf("round %d: last_error %q does not report the 404", round, h.LastError)
		}
		if wantStale := round >= maxFailures; h.Stale != wantStale {
			t.Fatalf("round %d: stale = %v, want %v", round, h.Stale, wantStale)
		}
		if h.HasCube {
			t.Fatalf("round %d: a 404 endpoint has a cube: %+v", round, h)
		}
	}
	if probes := deltaProbes.Load(); probes != maxFailures+1 {
		t.Fatalf("/delta asked %d times, want once per scrape (%d)", probes, maxFailures+1)
	}
	if n := otherRequests.Load(); n != 0 {
		t.Fatalf("federator fetched %d non-/delta documents", n)
	}
	if f.Snapshot().Cube != nil {
		t.Fatal("404 endpoint contributed a cube")
	}
}

// TestScrapeBodyBound: a response body past MaxBodyBytes must fail the
// scrape — a hostile or broken endpoint cannot balloon the federator —
// and the failure must be visible in health.
func TestScrapeBodyBound(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{})
	for _, e := range jobEvents(8, 0.5) {
		c.Record(e)
	}
	srv := httptest.NewServer(serve.NewHandler(c))
	defer srv.Close()

	f := newTestFederator(t, srv.URL, func(o *Options) { o.MaxBodyBytes = 64 })
	f.ScrapeAll(context.Background())
	h := f.Health()[0]
	if h.HasCube || h.Failures == 0 {
		t.Fatalf("64-byte body bound did not fail the scrape: %+v", h)
	}
	if f.Snapshot().Cube != nil {
		t.Fatal("bounded-out endpoint still contributed a cube")
	}
}

// TestFederatorRestartMidDeltaStream: a collector restart between two
// delta scrapes changes the boot nonce, so the in-flight delta chain is
// dead — the federator must force a full resync and end up with exactly
// the new incarnation's state, never a merge of the two boots.
func TestFederatorRestartMidDeltaStream(t *testing.T) {
	var handler atomic.Value
	c1 := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range jobEvents(4, 0.5) {
		c1.Record(e)
	}
	handler.Store(serve.NewHandler(c1))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	f := newTestFederator(t, srv.URL, nil)
	ctx := context.Background()

	// Establish a delta chain: full doc, then an incremental one, which
	// must be smaller than the full document it patches.
	f.ScrapeAll(ctx)
	full := f.Health()[0].Bytes
	c1.Record(trace.Event{Rank: 1, Region: "solve", Activity: "comp", Start: 8, End: 9})
	f.ScrapeAll(ctx)
	if h := f.Health()[0]; h.Scrapes != 2 || h.Bytes == full || h.Bytes-full >= full {
		t.Fatalf("delta chain not established (full document %d bytes): %+v", full, h)
	}

	// Restart mid-stream: new boot nonce, fresh generations, different
	// content at the same URL.
	c2 := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range jobEvents(2, 1.0) {
		c2.Record(e)
	}
	handler.Store(serve.NewHandler(c2))

	f.ScrapeAll(ctx)
	got := f.Snapshot()
	if got.Cube == nil {
		t.Fatal("no cube after the restart resync")
	}
	want := c2.Snapshot()
	if got.Cube.NumProcs() != want.Cube.NumProcs() {
		t.Fatalf("resynced cube has %d procs, want %d — boots were merged", got.Cube.NumProcs(), want.Cube.NumProcs())
	}
	// The federated cube namespaces regions; compare cell values through
	// the names.
	for i, r := range want.Cube.Regions() {
		gi := -1
		for ri, gr := range got.Cube.Regions() {
			if gr == "job/"+r {
				gi = ri
			}
		}
		if gi < 0 {
			t.Fatalf("region %q missing after resync: %v", r, got.Cube.Regions())
		}
		for j := range want.Cube.Activities() {
			wv, _ := want.Cube.ProcTimes(i, j)
			gv, _ := got.Cube.ProcTimes(gi, j)
			for p := range wv {
				if wv[p] != gv[p] {
					t.Fatalf("cell (%q,%d,%d) = %v, want %v", r, j, p, gv[p], wv[p])
				}
			}
		}
	}
}
