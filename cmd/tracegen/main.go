// Command tracegen generates synthetic measurement cubes: either the exact
// reconstruction of the paper's case study or a parametric workload with
// injectable imbalance, for testing analysis pipelines and tools.
//
// Usage:
//
//	tracegen -paper -out paper.lifp
//	tracegen -regions 10 -activities 4 -procs 64 -profile linear -severity 0.5 -out synth.json
//
// With -emit, tracegen becomes a load generator for the remote ingest
// path instead of writing a file: it streams an event trace to a
// collector (imbamon -ingest) over the binary wire protocol and reports
// the achieved event rate. The stream is either a recorded trace replayed
// from -events (a .liwp event file, e.g. from cfdsim -events), optionally
// repeated -loop times with timestamps shifted onto a continuous
// timeline, or events synthesized from the generated cube by slicing
// every cell's per-processor time into -emit-iters equal intervals.
//
//	tracegen -emit unix:/tmp/loadimb.sock -events run.liwp -loop 100
//	tracegen -emit tcp:127.0.0.1:9191 -procs 64 -emit-iters 200
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "output cube file (.lifp, .json or .csv); stdout JSON when empty")
		usePaper   = fs.Bool("paper", false, "emit the reconstructed paper case-study cube")
		regions    = fs.Int("regions", 8, "number of code regions")
		activities = fs.Int("activities", 4, "number of activities")
		procs      = fs.Int("procs", 16, "number of processors")
		profile    = fs.String("profile", "one-hot", "imbalance profile: balanced, one-hot, linear, block, random")
		severity   = fs.Float64("severity", 0.5, "imbalance severity in [0, 1]")
		seed       = fs.Uint64("seed", 1, "seed for the random profile")
		emit       = fs.String("emit", "", "stream events to a collector (unix:PATH or tcp:HOST:PORT) instead of writing a cube")
		emitEvents = fs.String("events", "", "with -emit: replay this .liwp event trace instead of synthesizing from the cube")
		emitLoop   = fs.Int("loop", 1, "with -emit: stream the trace this many times, shifted onto a continuous timeline")
		emitIters  = fs.Int("emit-iters", 50, "with -emit and no -events: events synthesized per cube cell per processor")
		emitBatch  = fs.Int("emit-batch", 4096, "with -emit: events per wire frame")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cube, err := build(*usePaper, *regions, *activities, *procs, *profile, *severity, *seed)
	if err != nil {
		return err
	}
	if *emit != "" {
		return emitStream(stdout, cube, *emit, *emitEvents, *emitLoop, *emitIters, *emitBatch)
	}
	if *out == "" {
		return tracefmt.WriteCubeJSON(stdout, cube)
	}
	if err := tracefmt.SaveCube(*out, cube); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %dx%dx%d cube to %s\n", cube.NumRegions(), cube.NumActivities(), cube.NumProcs(), *out)
	return nil
}

func build(usePaper bool, regions, activities, procs int, profile string, severity float64, seed uint64) (*trace.Cube, error) {
	if usePaper {
		return workload.ReconstructCube()
	}
	var prof workload.Profile
	switch profile {
	case "balanced":
		prof = workload.BalancedProfile{}
	case "one-hot":
		prof = workload.OneHotProfile{}
	case "linear":
		prof = workload.LinearProfile{}
	case "block":
		prof = workload.BlockProfile{High: max(1, procs/4)}
	case "random":
		prof = workload.RandomProfile{Seed: seed}
	default:
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	spec := workload.Uniform(regions, activities, procs)
	spec.Profile = prof
	spec.Severity = severity
	return workload.Synthesize(spec)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// emitStream replays or synthesizes an event trace into a remote
// collector over the wire protocol and reports the achieved rate.
func emitStream(stdout io.Writer, cube *trace.Cube, spec, eventsFile string, loop, iters, batch int) error {
	var events []trace.Event
	if eventsFile != "" {
		log, err := tracefmt.OpenEvents(eventsFile)
		if err != nil {
			return err
		}
		events = log.Events()
	} else {
		events = synthesizeEvents(cube, iters)
	}
	if len(events) == 0 {
		return fmt.Errorf("no events to emit")
	}
	span := 0.0
	for _, e := range events {
		if e.End > span {
			span = e.End
		}
	}
	if loop < 1 {
		loop = 1
	}
	cl, err := monitor.DialIngest(spec, monitor.ClientOptions{Batch: batch, FlushInterval: -1})
	if err != nil {
		return err
	}
	start := time.Now()
	var sink trace.Sink = cl
	for r := 0; r < loop; r++ {
		// Each pass is shifted past the previous one, so the receiving
		// collector sees one continuous virtual timeline (and its temporal
		// windows keep advancing) rather than loop-many overlapping runs.
		trace.RecordBatch(trace.ShiftSink(sink, span*float64(r)), events)
		if err := cl.Err(); err != nil {
			return fmt.Errorf("emit stream: %w", err)
		}
	}
	if err := cl.Close(); err != nil {
		return fmt.Errorf("emit stream: %w", err)
	}
	elapsed := time.Since(start)
	total := len(events) * loop
	fmt.Fprintf(stdout, "emitted %d events (%d x %d) to %s in %s (%.2fM events/sec)\n",
		total, loop, len(events), spec, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds()/1e6)
	return nil
}

// synthesizeEvents slices every cube cell's per-processor time into iters
// equal events laid end to end on each processor's own timeline — a
// stream whose aggregation reproduces the cube's totals, for driving the
// ingest path without a recorded trace.
func synthesizeEvents(cube *trace.Cube, iters int) []trace.Event {
	if iters < 1 {
		iters = 1
	}
	regions, activities := cube.Regions(), cube.Activities()
	cursors := make([]float64, cube.NumProcs())
	var events []trace.Event
	for k := 0; k < iters; k++ {
		for i, region := range regions {
			for j, activity := range activities {
				for p := 0; p < cube.NumProcs(); p++ {
					t, err := cube.At(i, j, p)
					if err != nil || t <= 0 {
						continue
					}
					d := t / float64(iters)
					events = append(events, trace.Event{
						Rank:     p,
						Region:   region,
						Activity: activity,
						Start:    cursors[p],
						End:      cursors[p] + d,
					})
					cursors[p] += d
				}
			}
		}
	}
	return events
}
