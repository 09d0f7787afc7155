package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/rebalance"
	"loadimb/internal/trace"
)

// ingestEvents generates a well-formed random event stream across ranks,
// each rank's events contiguous in time.
func ingestEvents(rng *rand.Rand, n, ranks int) []trace.Event {
	regions := []string{"loop 1", "loop 2", "halo"}
	activities := []string{"computation", "point-to-point", "collective"}
	events := make([]trace.Event, 0, n)
	cursors := make([]float64, ranks)
	for len(events) < n {
		r := rng.Intn(ranks)
		e := trace.Event{
			Rank:     r,
			Region:   regions[rng.Intn(len(regions))],
			Activity: activities[rng.Intn(len(activities))],
			Start:    cursors[r],
			End:      cursors[r] + rng.Float64()*0.2,
		}
		cursors[r] = e.End
		events = append(events, e)
	}
	return events
}

// TestIngestMetrics: the handler built WithIngest exposes the
// loadimb_ingest_* counters, and they account for the shipped stream.
func TestIngestMetrics(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{})
	srv := monitor.NewIngestServer(c, monitor.IngestOptions{})
	defer srv.Close()
	sock := filepath.Join(t.TempDir(), "m.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	cl, err := monitor.DialIngest("unix:"+sock, monitor.ClientOptions{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	events := ingestEvents(rand.New(rand.NewSource(3)), 640, 4)
	cl.RecordBatch(events)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Events() < uint64(len(events)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	h := NewHandler(c, WithIngest(srv))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		monitor.MetricIngestConnsTotal + " 1",
		monitor.MetricIngestConnsActive + " 1",
		fmt.Sprintf("%s %d", monitor.MetricIngestEventsTotal, len(events)),
		fmt.Sprintf("%s %d", monitor.MetricIngestBatchesTotal, len(events)/64),
		monitor.MetricIngestDroppedTotal + " 0",
		monitor.MetricIngestConnEvents + "{conn=\"1\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, monitor.MetricEventsTotal) {
		t.Error("/metrics lost the collector families")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsFamiliesGrouped scrapes a /metrics that carries every kind
// of family at once — collector indices, per-cell statistics, windows
// and phases, the rebalance families, and the per-connection ingest
// families with two connections open — through the strict parser, which
// rejects a family whose samples do not form one group.
func TestMetricsFamiliesGrouped(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.25})
	ing := monitor.NewIngestServer(c, monitor.IngestOptions{})
	defer ing.Close()
	sock := filepath.Join(t.TempDir(), "g.sock")
	if _, err := ing.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var sent uint64
	for i := 0; i < 2; i++ {
		cl, err := monitor.DialIngest("unix:"+sock, monitor.ClientOptions{Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		events := ingestEvents(rng, 320, 3)
		cl.RecordBatch(events)
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		sent += uint64(len(events))
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Events() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctrl, err := rebalance.New(rebalance.PolicyReactive, rebalance.Options{Target: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Decide(0, []float64{10, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}

	h := NewHandler(c, WithIngest(ing), WithRebalance(ctrl))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	count := map[string]int{}
	for _, s := range parseExposition(t, rec.Body.String()) {
		count[s.name]++
	}
	for _, fam := range []string{monitor.MetricIngestConnEvents, monitor.MetricIngestConnDropped, monitor.MetricIngestConnStalls} {
		if count[fam] != 2 {
			t.Errorf("%s has %d samples, want one per open connection (2)", fam, count[fam])
		}
	}
	for _, fam := range []string{
		monitor.MetricIDActivity, monitor.MetricSIDActivity, monitor.MetricIDRegion, monitor.MetricSIDRegion,
		monitor.MetricCellEvents, monitor.MetricCellDurMean, monitor.MetricCellDurStddev,
		monitor.MetricWindowGini, monitor.MetricPhaseCurrent, "loadimb_rebalance_rounds_total",
	} {
		if count[fam] == 0 {
			t.Errorf("no %s samples", fam)
		}
	}
}
