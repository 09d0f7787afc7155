package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// testClient bounds every test request so a hung daemon fails fast.
var testClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestParseArgs(t *testing.T) {
	d, err := parseArgs([]string{
		"-endpoints", "a=http://h1:9190, b=http://h2:9190,http://h3:9190",
		"-interval", "250ms", "-max-failures", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.endpoints) != 3 || d.interval != 250*time.Millisecond || d.maxFailures != 5 {
		t.Fatalf("parsed %+v", d)
	}
	if d.endpoints[0].Name != "a" || d.endpoints[1].Name != "b" || d.endpoints[2].Name != "" {
		t.Fatalf("endpoint names = %+v", d.endpoints)
	}
	if d.endpoints[2].URL != "http://h3:9190" {
		t.Fatalf("bare url parsed as %+v", d.endpoints[2])
	}
	if _, err := parseArgs(nil); err == nil {
		t.Error("missing -endpoints accepted")
	}
	if _, err := parseArgs([]string{"-endpoints", "a=x", "stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
	for _, flag := range []string{"-window-cap", "-max-body-bytes"} {
		if _, err := parseArgs([]string{"-endpoints", "a=x", flag, "-1"}); err == nil {
			t.Errorf("negative %s accepted: the bound cannot be disabled", flag)
		}
	}
}

// TestDaemonFederates runs the daemon against two live monitor endpoints
// and checks the served aggregate covers both jobs.
func TestDaemonFederates(t *testing.T) {
	mkEndpoint := func(region string, procs int) *httptest.Server {
		c := monitor.NewCollector(monitor.Options{})
		for p := 0; p < procs; p++ {
			c.Record(trace.Event{
				Rank: p, Region: region, Activity: "comp",
				Start: 0, End: 1 + 0.5*float64(p),
			})
		}
		srv := httptest.NewServer(serve.NewHandler(c))
		t.Cleanup(srv.Close)
		return srv
	}
	a := mkEndpoint("solve", 3)
	b := mkEndpoint("sweep", 2)
	d, err := parseArgs([]string{
		"-addr", "127.0.0.1:0",
		"-endpoints", "a=" + a.URL + ",b=" + b.URL,
		"-interval", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	runErr := make(chan error, 1)
	go func() { runErr <- d.run(ctx, &buf) }()
	<-d.started

	code, body := httpGet(t, d.url+"/cube.json")
	if code != http.StatusOK {
		t.Fatalf("/cube.json = %d", code)
	}
	cube, err := tracefmt.ReadCubeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatalf("served cube does not parse: %v", err)
	}
	if cube.NumProcs() != 5 {
		t.Errorf("federated procs = %d, want 5", cube.NumProcs())
	}
	regions := cube.Regions()
	if len(regions) != 2 || regions[0] != "a/solve" || regions[1] != "b/sweep" {
		t.Errorf("federated regions = %v", regions)
	}

	code, body = httpGet(t, d.url+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d\n%s", code, body)
	}
	var health struct {
		Status    string `json:"status"`
		Endpoints []struct {
			Name  string `json:"name"`
			Stale bool   `json:"stale"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Endpoints) != 2 {
		t.Fatalf("healthz = %s", body)
	}

	code, body = httpGet(t, d.url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"loadimb_fed_endpoints 2", "loadimb_procs 5"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if out := buf.String(); !strings.Contains(out, "serving on http://") {
		t.Errorf("unexpected daemon output:\n%s", out)
	}
}
