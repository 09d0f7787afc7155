// Command cfdsim runs the simulated message-passing CFD program on the
// virtual machine and writes the resulting measurement cube (and
// optionally the raw event trace) for analysis with imba and traceview.
//
// Usage:
//
//	cfdsim -out run.lifp                       # paper-like defaults
//	cfdsim -procs 32 -imbalance 0.5 -out run.json
//	cfdsim -events run.liwp -out run.lifp -summary
//	cfdsim -serve 127.0.0.1:9190 -linger 1m    # live /metrics during the run
//	cfdsim -emit unix:/tmp/loadimb.sock        # stream events to imbamon -ingest
//	cfdsim -slow-rank 5 -slow-factor 3 -events run.liwp   # inject a straggler
//	                                           # (imba -diagnose names it)
//	cfdsim -slow-rank 5 -slow-factor 3 -rebalance reactive # close the loop:
//	                                           # migrate rows until ID_P <= target
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"loadimb/internal/cfd"
	"loadimb/internal/core"
	"loadimb/internal/monitor"
	"loadimb/internal/mpi"
	"loadimb/internal/rebalance"
	"loadimb/internal/report"
	lserve "loadimb/internal/serve"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfdsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cfdsim", flag.ContinueOnError)
	var (
		out       = fs.String("out", "", "output cube file (.lifp binary, .json or .csv)")
		events    = fs.String("events", "", "also write the raw event trace (.liwp event stream)")
		bytesOut  = fs.String("bytes", "", "also write the byte-counter cube (.lifp, .json or .csv)")
		procs     = fs.Int("procs", 16, "number of simulated processors")
		gridX     = fs.Int("gridx", 512, "grid width")
		gridY     = fs.Int("gridy", 512, "grid height (distributed across processors)")
		iters     = fs.Int("iters", 30, "solver iterations")
		imbalance = fs.Float64("imbalance", 0.2, "row-decomposition skew in [0, 1]")
		warmup    = fs.Float64("warmup", 5.2, "uninstrumented startup seconds")
		summary   = fs.Bool("summary", false, "print the analysis summary of the run")
		slowRank  = fs.Int("slow-rank", 0, "rank slowed by -slow-factor (a persistent straggler)")
		slowFac   = fs.Float64("slow-factor", 0, "computation multiplier of -slow-rank; 0 disables the injection")
		serve     = fs.String("serve", "", "serve live /metrics on this address during the run")
		window    = fs.Float64("window", 5, "temporal window width for -serve (virtual seconds)")
		linger    = fs.Duration("linger", 0, "keep the -serve endpoints up this long after the run")
		emit      = fs.String("emit", "", "stream events to a remote collector (unix:PATH or tcp:HOST:PORT, see imbamon -ingest)")
		rebPolicy = fs.String("rebalance", "", "adaptive row rebalancing policy: reactive or predictive; empty disables")
		rebTarget = fs.Float64("rebalance-target", 0.1, "ID_P the rebalancer drives toward")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *window < 0 || math.IsNaN(*window) || math.IsInf(*window, 0) {
		return fmt.Errorf("-window %g is not a finite width >= 0 (0 turns windowing off)", *window)
	}

	cfg := cfd.Defaults()
	cfg.Procs = *procs
	cfg.GridX = *gridX
	cfg.GridY = *gridY
	cfg.Iterations = *iters
	cfg.Imbalance = *imbalance
	cfg.InitWarmup = *warmup
	cfg.SlowRank = *slowRank
	cfg.SlowFactor = *slowFac

	var ctrl *rebalance.Controller
	if *rebPolicy != "" {
		var err error
		ctrl, err = rebalance.New(*rebPolicy, rebalance.Options{Target: *rebTarget})
		if err != nil {
			return err
		}
		cfg.Rebalance = ctrl
	}

	var sinks []trace.Sink
	var srv *http.Server
	if *serve != "" {
		regions := cfd.LoopNames
		var handlerOpts []lserve.Option
		if ctrl != nil {
			regions = append(append([]string(nil), regions...), cfd.RebalanceRegion)
			handlerOpts = append(handlerOpts, lserve.WithRebalance(ctrl))
		}
		col := monitor.NewCollector(monitor.Options{
			Window:     *window,
			Regions:    regions,
			Activities: mpi.Activities(),
		})
		sinks = append(sinks, col)
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "serving live metrics on http://%s\n", ln.Addr())
		srv = &http.Server{Handler: lserve.NewHandler(col, handlerOpts...)}
		go srv.Serve(ln)
		defer srv.Close()
	}
	if *emit != "" {
		cl, err := monitor.DialIngest(*emit, monitor.ClientOptions{})
		if err != nil {
			return fmt.Errorf("dialing -emit collector: %w", err)
		}
		fmt.Fprintf(stdout, "streaming events to %s\n", *emit)
		sinks = append(sinks, cl)
		defer func() {
			if err := cl.Close(); err != nil {
				fmt.Fprintf(stdout, "emit stream error: %v\n", err)
			}
		}()
	}
	switch len(sinks) {
	case 0:
	case 1:
		cfg.Sink = sinks[0]
	default:
		cfg.Sink = teeSink(sinks)
	}

	res, err := cfd.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %d iterations on %d processors: program time %.3f s, instrumented %.3f s, final residual %.3g\n",
		cfg.Iterations, cfg.Procs, res.Cube.ProgramTime(), res.Cube.RegionsTotal(),
		res.Residuals[len(res.Residuals)-1])
	if ctrl != nil {
		s := ctrl.Snapshot()
		fmt.Fprintf(stdout, "rebalance (%s): %d rounds, %d migrations, achieved ID_P %.4f (target %g, converged %v), final rows %v\n",
			s.Policy, s.Rounds, s.Migrations, s.AchievedID, s.Target, s.Converged, res.Rows)
	}

	if *out != "" {
		if err := tracefmt.SaveCube(*out, res.Cube); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote cube to %s\n", *out)
	}
	if *events != "" {
		if err := tracefmt.SaveEvents(*events, res.Log); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d events to %s\n", res.Log.Len(), *events)
	}
	if *bytesOut != "" {
		if err := tracefmt.SaveCube(*bytesOut, res.BytesCube); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote byte counters to %s\n", *bytesOut)
	}
	if *summary {
		analysis, err := core.Analyze(res.Cube, core.AnalyzeOptions{})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Summary(analysis))
	}
	if srv != nil && *linger > 0 {
		fmt.Fprintf(stdout, "lingering %s for final scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// teeSink fans every event (and batch) out to multiple sinks: -serve and
// -emit can observe the same run at once.
type teeSink []trace.Sink

func (t teeSink) Record(e trace.Event) {
	for _, s := range t {
		s.Record(e)
	}
}

func (t teeSink) RecordBatch(events []trace.Event) {
	for _, s := range t {
		trace.RecordBatch(s, events)
	}
}
