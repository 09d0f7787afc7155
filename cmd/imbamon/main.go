// Command imbamon is the live imbalance monitoring daemon: it runs one of
// the built-in simulated workloads with a streaming collector attached
// and serves the paper's dispersion indices over HTTP while the workload
// executes.
//
// Endpoints (see internal/monitor): /metrics (Prometheus text format),
// /cube.json (live measurement cube), /lorenz.json, /timeline.json
// (windowed temporal imbalance), /phases.json (streaming phase
// detection over the window trajectory), /diagnose.json (automatic
// diagnosis: rank cohorts and divergence findings), /healthz, /
// (embedded dashboard) and /debug/pprof/.
//
// Usage:
//
//	imbamon -addr :9190 -workload cfd -window 5
//	imbamon -workload masterworker -procs 16 -tasks 200 -repeat 0   # loop forever
//	imbamon -workload none -ingest unix:/tmp/loadimb.sock,tcp::9191 # ingest-only
//	curl -s localhost:9190/metrics | grep loadimb_sid_c
//
// With -ingest the daemon also accepts the binary event wire protocol
// (internal/tracefmt) on the listed unix:PATH / tcp:HOST:PORT listeners:
// remote instrumented programs stream their events through an ingest
// client (cfdsim -emit, tracegen -emit, or monitor.DialIngest) and the
// daemon folds them into the same live cube, exposing per-connection
// loadimb_ingest_* counters on /metrics. Workload "none" turns the
// daemon into a pure aggregator for remote events.
//
// With -repeat N the workload is run N times back to back (0 = until
// interrupted), each run's events shifted onto a continuous virtual
// timeline so the temporal windows keep advancing. The daemon serves
// until SIGINT/SIGTERM; pass -exit to terminate -linger after the last
// run completes.
//
// To watch a fleet of imbamon instances as one program, point imbafed
// (cmd/imbafed) at their base URLs: it scrapes each one's /delta,
// federates the cubes (rank offsetting + region namespacing) and
// re-serves the cluster-wide indices through the same exposition.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"loadimb/internal/apps"
	"loadimb/internal/cfd"
	"loadimb/internal/core"
	"loadimb/internal/monitor"
	"loadimb/internal/mpi"
	"loadimb/internal/rebalance"
	"loadimb/internal/serve"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("imbamon: ")
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
	addr       string
	ingest     string
	ingestDrop bool
	maxRank    int
	workload   string
	procs      int
	tasks      int
	iters      int
	sweeps     int
	phases     int
	imbalance  float64
	window     float64
	windowCap  int
	penalty    float64
	slowRank   int
	slowFac    float64
	repeat     int
	exit       bool
	linger     time.Duration
	rebPolicy  string
	rebTarget  float64

	ctrl *rebalance.Controller
	col  *monitor.Collector
	// url is the served base URL, valid once started is closed.
	url     string
	started chan struct{}
	// workloadDone is closed when the last workload run has finished
	// (the server keeps serving afterwards).
	workloadDone chan struct{}
}

func parseArgs(args []string) (*daemon, error) {
	d := &daemon{started: make(chan struct{}), workloadDone: make(chan struct{})}
	fs := flag.NewFlagSet("imbamon", flag.ContinueOnError)
	fs.StringVar(&d.addr, "addr", ":9190", "HTTP listen address")
	fs.StringVar(&d.ingest, "ingest", "", "comma-separated event ingest listeners (unix:PATH or tcp:HOST:PORT); remote producers stream binary event frames here")
	fs.BoolVar(&d.ingestDrop, "ingest-drop", false, "drop events when an ingest connection's ring is full instead of applying backpressure")
	fs.IntVar(&d.maxRank, "max-rank", 0, "largest event rank accepted; higher ranks are dropped as malformed, bounding the memory one wire frame can force (0 = default 2^20; negative values are rejected)")
	fs.StringVar(&d.workload, "workload", "cfd", "workload: cfd, masterworker, wavefront, amr, or none (ingest-only daemon)")
	fs.IntVar(&d.procs, "procs", 16, "simulated processors")
	fs.IntVar(&d.tasks, "tasks", 120, "tasks (masterworker)")
	fs.IntVar(&d.iters, "iters", 30, "solver iterations (cfd)")
	fs.IntVar(&d.sweeps, "sweeps", 20, "sweep pairs (wavefront)")
	fs.IntVar(&d.phases, "phases", 6, "refinement phases (amr)")
	fs.Float64Var(&d.imbalance, "imbalance", 0.2, "decomposition skew in [0, 1] (cfd)")
	fs.IntVar(&d.slowRank, "slow-rank", 0, "rank slowed by -slow-factor (cfd and amr): a persistent straggler the diagnosis names")
	fs.Float64Var(&d.slowFac, "slow-factor", 0, "computation multiplier of -slow-rank; 0 disables the injection")
	fs.Float64Var(&d.window, "window", 5, "temporal window width in virtual seconds (0 = off; negative values are rejected)")
	fs.IntVar(&d.windowCap, "window-cap", temporal.DefaultWindowCap,
		"max full-resolution windows retained; older windows decimate 2:1 into a coarse tail (0 = default 4096; negative values are rejected)")
	fs.Float64Var(&d.penalty, "phase-penalty", 0, "segmentation penalty for live phase detection (<= 0 = automatic)")
	fs.StringVar(&d.rebPolicy, "rebalance", "", "adaptive rebalancing policy: reactive or predictive (cfd, masterworker, amr); empty disables")
	fs.Float64Var(&d.rebTarget, "rebalance-target", 0.1, "ID_P the rebalancer drives toward")
	fs.IntVar(&d.repeat, "repeat", 1, "workload repetitions (0 = loop until interrupted)")
	fs.BoolVar(&d.exit, "exit", false, "terminate after the last run instead of serving forever")
	fs.DurationVar(&d.linger, "linger", 0, "with -exit, keep serving this long after the last run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if d.maxRank < 0 {
		return nil, fmt.Errorf("-max-rank %d is negative: the rank bound cannot be disabled", d.maxRank)
	}
	if d.window < 0 || math.IsNaN(d.window) || math.IsInf(d.window, 0) {
		return nil, fmt.Errorf("-window %g is not a finite width >= 0 (0 turns windowing off)", d.window)
	}
	if d.windowCap < 0 {
		return nil, fmt.Errorf("-window-cap %d is negative: the window cap cannot be disabled", d.windowCap)
	}
	switch d.workload {
	case "cfd", "masterworker", "wavefront", "amr":
	case "none":
		if d.ingest == "" {
			return nil, fmt.Errorf("workload none needs -ingest: there would be no event source at all")
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want cfd, masterworker, wavefront, amr or none)", d.workload)
	}
	if d.rebPolicy != "" {
		switch d.workload {
		case "cfd", "masterworker", "amr":
		default:
			return nil, fmt.Errorf("-rebalance is not supported for workload %q", d.workload)
		}
		ctrl, err := rebalance.New(d.rebPolicy, rebalance.Options{Target: d.rebTarget})
		if err != nil {
			return nil, err
		}
		d.ctrl = ctrl
	}
	return d, nil
}

// regionOrder returns the preset cube region order of the workload, when
// its names are known up front, so gauge label sets are stable from the
// first scrape.
func (d *daemon) regionOrder() []string {
	var out []string
	switch d.workload {
	case "cfd":
		out = append(out, cfd.LoopNames...)
		if d.ctrl != nil {
			out = append(out, cfd.RebalanceRegion)
		}
	case "amr":
		for i := 0; i < d.phases; i++ {
			out = append(out, apps.AMRRegionName(i))
		}
		if d.ctrl != nil {
			out = append(out, apps.AMRRebalanceRegion)
		}
	}
	return out
}

// runOnce executes the configured workload once with the sink attached,
// returning the run's virtual-time span.
func (d *daemon) runOnce(sink trace.Sink) (float64, error) {
	switch d.workload {
	case "cfd":
		cfg := cfd.Defaults()
		cfg.Procs = d.procs
		cfg.Iterations = d.iters
		cfg.Imbalance = d.imbalance
		cfg.SlowRank = d.slowRank
		cfg.SlowFactor = d.slowFac
		cfg.Sink = sink
		if d.ctrl != nil {
			cfg.Rebalance = d.ctrl
		}
		res, err := cfd.Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.Log.Span(), nil
	case "masterworker":
		cfg := apps.DefaultMasterWorker()
		cfg.Procs = d.procs
		cfg.Tasks = d.tasks
		cfg.Sink = sink
		if d.ctrl != nil {
			cfg.Rebalance = d.ctrl
		}
		res, err := apps.MasterWorker(cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	case "wavefront":
		cfg := apps.DefaultWavefront()
		cfg.Procs = d.procs
		cfg.Sweeps = d.sweeps
		cfg.Sink = sink
		res, err := apps.Wavefront(cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	case "amr":
		cfg := apps.DefaultAMR()
		cfg.Procs = d.procs
		cfg.Phases = d.phases
		cfg.Straggler = d.slowRank
		cfg.StragglerFactor = d.slowFac
		cfg.Sink = sink
		if d.ctrl != nil {
			cfg.Rebalance = d.ctrl
		}
		res, err := apps.AMR(cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	return 0, fmt.Errorf("unknown workload %q", d.workload)
}

// run serves the monitoring endpoints while executing the workload
// schedule, then keeps serving until ctx is canceled (or, with -exit,
// shuts down -linger after the last run).
func (d *daemon) run(ctx context.Context, stdout io.Writer) error {
	d.col = monitor.NewCollector(monitor.Options{
		Window:       d.window,
		WindowCap:    d.windowCap,
		PhasePenalty: d.penalty,
		MaxRank:      d.maxRank,
		Regions:      d.regionOrder(),
		Activities:   mpi.Activities(),
	})
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	var handlerOpts []serve.Option
	if d.ingest != "" {
		ing := monitor.NewIngestServer(d.col, monitor.IngestOptions{DropOnFull: d.ingestDrop})
		defer ing.Close()
		for _, spec := range strings.Split(d.ingest, ",") {
			addr, err := ing.Listen(strings.TrimSpace(spec))
			if err != nil {
				ln.Close()
				return err
			}
			fmt.Fprintf(stdout, "imbamon: ingesting events on %s (%s)\n", addr, addr.Network())
		}
		handlerOpts = append(handlerOpts, serve.WithIngest(ing))
	}
	if d.ctrl != nil {
		handlerOpts = append(handlerOpts, serve.WithRebalance(d.ctrl))
	}
	d.url = "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "imbamon: serving on %s (workload %s, P=%d)\n", d.url, d.workload, d.procs)
	close(d.started)
	srv := &http.Server{Handler: serve.NewHandler(d.col, handlerOpts...)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()

	offset := 0.0
	var runErr error
	for r := 0; d.workload != "none" && (d.repeat <= 0 || r < d.repeat); r++ {
		if ctx.Err() != nil {
			break
		}
		span, err := d.runOnce(trace.ShiftSink(d.col, offset))
		if err != nil {
			runErr = fmt.Errorf("workload run %d: %w", r+1, err)
			break
		}
		offset += span
	}
	// An ingest-only daemon has no workload run to summarize up front; its
	// summary is the final state of the remote stream, printed at shutdown.
	if d.workload != "none" {
		d.printSummary(stdout, d.col.Snapshot())
		if d.ctrl != nil {
			s := d.ctrl.Snapshot()
			fmt.Fprintf(stdout, "imbamon: rebalance (%s): %d rounds, %d migrations, achieved ID_P %.4f (target %g, converged %v)\n",
				s.Policy, s.Rounds, s.Migrations, s.AchievedID, s.Target, s.Converged)
		}
	}
	close(d.workloadDone)
	if runErr != nil {
		return runErr
	}

	if d.exit {
		select {
		case <-time.After(d.linger):
		case <-ctx.Done():
		}
	} else {
		<-ctx.Done()
	}
	if d.workload == "none" {
		d.printSummary(stdout, d.col.Snapshot())
	}
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

// printSummary reports the final state of the collector: totals and the
// most imbalanced-and-significant region, the methodology's headline.
func (d *daemon) printSummary(stdout io.Writer, snap *monitor.Snapshot) {
	if snap.Cube == nil {
		fmt.Fprintln(stdout, "imbamon: no events collected")
		return
	}
	fmt.Fprintf(stdout, "imbamon: %d events, T=%.3f s over %d windows\n",
		snap.Events, snap.Cube.ProgramTime(), len(snap.Windows))
	if n := len(snap.Phases); n > 0 {
		cur := snap.Phases[n-1]
		fmt.Fprintf(stdout, "imbamon: %d phases detected (%d changes), current %q since t=%.3f s\n",
			n, n-1, cur.Label, cur.Start)
	}
	if rep := snap.Diagnosis(); rep != nil && len(rep.Findings) > 0 {
		fmt.Fprintf(stdout, "imbamon: diagnosis: %s (%d findings total)\n",
			rep.Findings[0].Summary, len(rep.Findings))
	}
	regs, err := core.CodeRegionView(snap.Cube, core.Options{})
	if err != nil {
		fmt.Fprintf(stdout, "imbamon: region view: %v\n", err)
		return
	}
	best := -1
	for i, r := range regs {
		if r.Defined && (best == -1 || r.SID > regs[best].SID) {
			best = i
		}
	}
	if best >= 0 {
		fmt.Fprintf(stdout, "imbamon: most imbalanced region %q (SID_C=%.5f, ID_C=%.5f)\n",
			regs[best].Name, regs[best].SID, regs[best].ID)
	}
}
