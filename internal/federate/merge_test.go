package federate

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"loadimb/internal/monitor"
	"loadimb/internal/temporal"
)

// mixedWidthFederation serves two windowed endpoints folding the given
// widths and a federator over them, and returns the federator's handler
// base URL with the endpoints' own snapshots.
func mixedWidthFederation(t *testing.T, widths [2]float64) (string, [2]*monitor.Snapshot) {
	t.Helper()
	var endpoints []Endpoint
	var snaps [2]*monitor.Snapshot
	for i, job := range []jobSpec{
		{name: "jobA", procs: 3, events: jobEvents(3, 0.5)},
		{name: "jobB", procs: 2, events: jobEvents(2, 1.25)},
	} {
		c := monitor.NewCollector(monitor.Options{Window: widths[i]})
		for _, e := range job.events {
			c.Record(e)
		}
		snaps[i] = c.Snapshot()
		srv := serveCollector(t, c)
		endpoints = append(endpoints, Endpoint{Name: job.name, URL: srv.URL})
	}
	f, err := New(Options{Endpoints: endpoints, Client: testClient})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	srv := httptest.NewServer(Handler(f))
	t.Cleanup(srv.Close)
	return srv.URL, snaps
}

// federationMetric returns the value of an unlabeled family on /metrics.
func federationMetric(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := testClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return ""
}

// TestFederatedMixedWidthsResample: endpoints folding commensurable
// widths (0.5 s and 1 s) federate into the series temporal.Merge makes of
// theirs, resampled to the common 1 s width, and the federator reports a
// healthy merge.
func TestFederatedMixedWidthsResample(t *testing.T) {
	base, snaps := mixedWidthFederation(t, [2]float64{0.5, 1})
	want, err := temporal.Merge([]temporal.JobWindows{
		{Procs: snaps[0].Cube.NumProcs(), Series: snaps[0].Series, Label: "jobA"},
		{Procs: snaps[1].Cube.NumProcs(), Series: snaps[1].Series, Label: "jobB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Window != 1 {
		t.Fatalf("merged width %g, want the common multiple 1", want.Window)
	}
	// The served series went through JSON; so does the reference.
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var wantDoc, got temporal.Series
	if err := json.Unmarshal(raw, &wantDoc); err != nil {
		t.Fatal(err)
	}
	getJSON(t, base+"/windows.json", &got)
	if len(got.Windows) == 0 {
		t.Fatal("federated series has no windows")
	}
	if !reflect.DeepEqual(got, wantDoc) {
		t.Fatalf("federated series differs from temporal.Merge:\ngot  %+v\nwant %+v", got, wantDoc)
	}
	if h := getHealthz(t, base); h.Status != "ok" || h.MergeError != "" {
		t.Fatalf("/healthz status %q, merge error %q; want ok and none", h.Status, h.MergeError)
	}
	if v := federationMetric(t, base, MetricMergeFailed); v != "0" {
		t.Fatalf("%s = %s, want 0", MetricMergeFailed, v)
	}
}

// TestFederatedMergeErrorVisible: endpoints folding non-commensurable
// widths (0.5 s and π s) cannot be merged into one window series. The
// cube view survives, and the failure shows on /healthz (status degraded,
// the error named) and on /metrics, where it used to be only logged.
func TestFederatedMergeErrorVisible(t *testing.T) {
	base, _ := mixedWidthFederation(t, [2]float64{0.5, math.Pi})
	h := getHealthz(t, base)
	if h.Status != "degraded" || !strings.Contains(h.MergeError, "window") {
		t.Fatalf("/healthz status %q, merge error %q; want degraded with the window merge error", h.Status, h.MergeError)
	}
	if v := federationMetric(t, base, MetricMergeFailed); v != "1" {
		t.Fatalf("%s = %s, want 1", MetricMergeFailed, v)
	}
	var cube json.RawMessage
	getJSON(t, base+"/cube.json", &cube)
}
