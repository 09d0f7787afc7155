// Command imbafed federates many imbamon instances into one cluster-wide
// imbalance view: it periodically scrapes each endpoint's /delta (the
// binary LIFP snapshot transfer, which ships only what changed since the
// generation the federator holds), merges the cubes — ranks offset per
// job, regions namespaced by endpoint name — and re-serves the paper's
// dispersion indices for the whole fleet through the same exposition the
// per-job monitors use. Endpoints that fold window series (collectors
// started with a window width) additionally get their timelines merged,
// so the federation serves a cluster-wide imbalance trajectory too.
//
// Endpoints (see internal/federate): /metrics (federation scrape-state
// gauges, including per-endpoint scrape latency, followed by the cube's
// Prometheus families), /cube.json (the federated measurement cube),
// /timeline.json and /windows.json (the merged cross-job window series;
// 503 when no endpoint exposes windows), /phases.json (phase detection
// over the cluster-wide trajectory, the same segmentation each
// endpoint's own /phases.json runs), /diagnose.json (automatic
// diagnosis over the merged windows, findings naming ranks job-locally
// as "job/3"), /lorenz.json, /delta and /healthz
// (per-endpoint scrape state: last success, last attempt, scrape
// latency, consecutive failures, staleness, window availability).
//
// Usage:
//
//	imbamon -addr :9190 -workload cfd &
//	imbamon -addr :9191 -workload masterworker &
//	imbafed -addr :9290 -endpoints cfd=http://localhost:9190,mw=http://localhost:9191
//	curl -s localhost:9290/healthz
//
// Each -endpoints entry is name=url (or a bare url, named after its
// host). An endpoint that fails -max-failures consecutive scrapes — an
// unreachable host, a timeout, any /delta answer other than 200 or 304,
// an undecodable document — is marked stale and dropped from the
// aggregate until it recovers; the remaining endpoints keep serving a
// correct cluster view.
//
// A federator serves /delta itself, so federators compose into trees: a
// higher tier scrapes lower-tier federators with -raw, which merges
// their cubes verbatim — the lower tier already namespaced its regions
// and ranks:
//
//	imbafed -addr :9291 -endpoints rackA1=http://a1:9190,rackA2=http://a2:9190
//	imbafed -addr :9292 -endpoints rackB1=http://b1:9190
//	imbafed -addr :9290 -raw -endpoints http://localhost:9291,http://localhost:9292
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"loadimb/internal/federate"
	"loadimb/internal/temporal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("imbafed: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := d.run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// daemon holds the parsed configuration and the handles tests observe.
type daemon struct {
	addr         string
	endpoints    []federate.Endpoint
	interval     time.Duration
	timeout      time.Duration
	maxFailures  int
	windowCap    int
	raw          bool
	maxBodyBytes int64

	fed *federate.Federator
	// url is the served base URL, valid once started is closed.
	url     string
	started chan struct{}
}

func parseArgs(args []string) (*daemon, error) {
	d := &daemon{started: make(chan struct{})}
	var endpoints string
	fs := flag.NewFlagSet("imbafed", flag.ContinueOnError)
	fs.StringVar(&d.addr, "addr", ":9290", "HTTP listen address")
	fs.StringVar(&endpoints, "endpoints", "",
		"comma-separated imbamon endpoints, each name=url or a bare url")
	fs.DurationVar(&d.interval, "interval", 2*time.Second, "scrape interval per endpoint")
	fs.DurationVar(&d.timeout, "timeout", 5*time.Second, "per-scrape request timeout")
	fs.IntVar(&d.maxFailures, "max-failures", 3,
		"consecutive scrape failures before an endpoint is marked stale")
	fs.IntVar(&d.windowCap, "window-cap", temporal.DefaultWindowCap,
		"max full-resolution windows in the merged series; older windows decimate into a coarse tail (0 = default 4096; negative values are rejected)")
	fs.BoolVar(&d.raw, "raw", false,
		"endpoints are lower-tier federators: merge their cubes without re-namespacing regions or relabeling ranks")
	fs.Int64Var(&d.maxBodyBytes, "max-body-bytes", 0,
		"per-scrape response body limit in bytes (0 = default 64 MiB; negative values are rejected)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if endpoints == "" {
		return nil, errors.New("no -endpoints to federate")
	}
	if d.windowCap < 0 {
		return nil, fmt.Errorf("-window-cap %d is negative: the window cap cannot be disabled", d.windowCap)
	}
	if d.maxBodyBytes < 0 {
		return nil, fmt.Errorf("-max-body-bytes %d is negative: the body bound cannot be disabled", d.maxBodyBytes)
	}
	for _, entry := range strings.Split(endpoints, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var ep federate.Endpoint
		if name, url, ok := strings.Cut(entry, "="); ok {
			ep = federate.Endpoint{Name: name, URL: url}
		} else {
			ep = federate.Endpoint{URL: entry}
		}
		ep.Raw = d.raw
		d.endpoints = append(d.endpoints, ep)
	}
	return d, nil
}

// run starts the scrape loops and serves the federated exposition until
// ctx is canceled. One synchronous scrape round runs before the listener
// opens, so the first request already sees whatever endpoints are up.
func (d *daemon) run(ctx context.Context, stdout io.Writer) error {
	fed, err := federate.New(federate.Options{
		Endpoints:    d.endpoints,
		Interval:     d.interval,
		Timeout:      d.timeout,
		MaxFailures:  d.maxFailures,
		WindowCap:    d.windowCap,
		MaxBodyBytes: d.maxBodyBytes,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	d.fed = fed
	fed.ScrapeAll(ctx)

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	d.url = "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "imbafed: serving on %s (federating %d endpoints every %s)\n",
		d.url, len(d.endpoints), d.interval)
	close(d.started)
	srv := &http.Server{Handler: federate.Handler(fed)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()

	runDone := make(chan struct{})
	go func() { defer close(runDone); fed.Run(ctx) }()
	<-ctx.Done()
	<-runDone

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
