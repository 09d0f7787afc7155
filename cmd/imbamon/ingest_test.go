package main

import (
	"bytes"
	"context"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/trace"
)

func TestParseArgsIngest(t *testing.T) {
	d, err := parseArgs([]string{"-workload", "none", "-ingest", "unix:/tmp/x.sock, tcp:127.0.0.1:0", "-ingest-drop"})
	if err != nil {
		t.Fatal(err)
	}
	if d.workload != "none" || d.ingest == "" || !d.ingestDrop {
		t.Fatalf("parsed %+v", d)
	}
	if _, err := parseArgs([]string{"-workload", "none"}); err == nil {
		t.Error("workload none without -ingest accepted: the daemon would have no event source")
	}
	if _, err := parseArgs([]string{"-max-rank", "-1", "-ingest", "tcp:127.0.0.1:0"}); err == nil {
		t.Error("negative -max-rank accepted: one wire frame could force per-rank state for any rank")
	}
}

// TestDaemonIngest: an ingest-only daemon (workload none) aggregates a
// remote event stream and exposes both the collector families and the
// loadimb_ingest_* counters on /metrics.
func TestDaemonIngest(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ingest.sock")
	d, err := parseArgs([]string{
		"-addr", "127.0.0.1:0",
		"-workload", "none",
		"-ingest", "unix:" + sock,
		"-window", "1",
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

	cl, err := monitor.DialIngest("unix:"+sock, monitor.ClientOptions{Batch: 64})
	if err != nil {
		t.Fatalf("dialing daemon ingest: %v", err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s := float64(i) * 0.01
		cl.Record(trace.Event{Rank: i % 4, Region: "remote", Activity: "computation", Start: s, End: s + 0.01})
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("closing client: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var metrics map[string]float64
	for {
		code, body := httpGet(t, d.url+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		metrics = parseMetrics(t, body)
		if metrics[scrapeKey(monitor.MetricEventsTotal)] >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never folded the %d remote events; last exposition:\n%s", n, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metrics[scrapeKey(monitor.MetricIngestEventsTotal)]; got != n {
		t.Errorf("%s = %v, want %d", monitor.MetricIngestEventsTotal, got, n)
	}
	if got := metrics[scrapeKey(monitor.MetricIngestConnsTotal)]; got != 1 {
		t.Errorf("%s = %v, want 1", monitor.MetricIngestConnsTotal, got)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon run: %v\noutput:\n%s", err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("ingesting events on")) {
		t.Errorf("startup output missing the ingest listener line:\n%s", buf.String())
	}
	// The ingest-only summary is printed at shutdown, once the remote
	// stream has actually been folded.
	if !bytes.Contains(buf.Bytes(), []byte("500 events")) {
		t.Errorf("shutdown output missing the ingested-events summary:\n%s", buf.String())
	}
}
