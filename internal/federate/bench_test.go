package federate

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// benchEndpoints is the simulated fleet size: one httptest server hosts
// this many independent collectors behind path prefixes, so the bench
// measures protocol bytes and scrape fan-out without 100 real sockets.
const benchEndpoints = 100

// benchFleet stands up the fleet and returns the collectors (to mutate
// between rounds) and the federator's endpoint list.
func benchFleet(b *testing.B) ([]*monitor.Collector, []Endpoint, *httptest.Server) {
	b.Helper()
	mux := http.NewServeMux()
	collectors := make([]*monitor.Collector, benchEndpoints)
	endpoints := make([]Endpoint, benchEndpoints)
	for i := range collectors {
		c := monitor.NewCollector(monitor.Options{Window: 0.25})
		// A realistic scrape target: a job some minutes into its run, with
		// a few hundred windows of trajectory behind it.
		for _, e := range jobEvents(8, 0.3+0.01*float64(i)) {
			c.Record(e)
		}
		for w := 0; w < 240; w++ {
			for p := 0; p < 8; p++ {
				start := 10 + 0.25*float64(w) + 0.01*float64(p)
				c.Record(trace.Event{Rank: p, Region: "solve", Activity: "comp",
					Start: start, End: start + 0.2})
			}
		}
		collectors[i] = c
		prefix := fmt.Sprintf("/ep%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, serve.NewHandler(c)))
		endpoints[i] = Endpoint{Name: fmt.Sprintf("job%d", i), URL: prefix}
	}
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	for i := range endpoints {
		endpoints[i].URL = srv.URL + endpoints[i].URL
	}
	return collectors, endpoints, srv
}

// minDeltaReduction is the floor on how many times fewer body bytes a
// delta round moves than refetching the changed endpoint's JSON
// documents would.
const minDeltaReduction = 10

// BenchmarkFederateScrape measures one steady-state scrape round of a
// 100-endpoint fleet where a single endpoint changed since the last
// round — the common case for any real scrape interval: 99 endpoints
// answer 304 and one ships a cell-level LIFP diff. Reported metrics:
// wire_B/op is body bytes fetched per round; json_B/op is what the
// changed endpoint's gzip'd /cube.json + /windows.json weigh, i.e. the
// full documents a JSON scraper would refetch instead (measured outside
// the timed region); p99_ms is the 99th-percentile per-endpoint scrape
// latency. Byte counts do not depend on timing, so every run, a 1x
// smoke included, fails when json_B/op is under minDeltaReduction times
// wire_B/op.
func BenchmarkFederateScrape(b *testing.B) {
	collectors, endpoints, _ := benchFleet(b)
	f, err := New(Options{
		Endpoints: endpoints,
		Timeout:   30 * time.Second,
		Client:    &http.Client{Timeout: 30 * time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	f.ScrapeAll(ctx) // cold sync: every endpoint ships a full document
	if f.Snapshot().Cube == nil {
		b.Fatal("fleet scrape produced no cube")
	}
	var startBytes, jsonBytes uint64
	for _, h := range f.Health() {
		startBytes += h.Bytes
	}
	var latencies []float64
	at := 200.0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		changed := n % benchEndpoints
		collectors[changed].Record(trace.Event{
			Rank: 1, Region: "solve", Activity: "comp", Start: at, End: at + 0.4,
		})
		at += 0.5
		f.ScrapeAll(ctx)
		for _, h := range f.Health() {
			latencies = append(latencies, h.ScrapeMillis)
		}
		b.StopTimer()
		jsonBytes += jsonScrapeBytes(b, endpoints[changed].URL)
		b.StartTimer()
	}
	b.StopTimer()
	var endBytes uint64
	for _, h := range f.Health() {
		endBytes += h.Bytes
	}
	wirePerRound := float64(endBytes-startBytes) / float64(b.N)
	jsonPerRound := float64(jsonBytes) / float64(b.N)
	b.ReportMetric(wirePerRound, "wire_B/op")
	b.ReportMetric(jsonPerRound, "json_B/op")
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		b.ReportMetric(latencies[len(latencies)*99/100], "p99_ms")
	}
	if jsonPerRound < minDeltaReduction*wirePerRound {
		b.Fatalf("a delta round moved %.0f B against %.0f B of JSON documents: %.1fx, floor %dx",
			wirePerRound, jsonPerRound, jsonPerRound/wirePerRound, minDeltaReduction)
	}
}
