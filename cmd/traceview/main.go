// Command traceview renders the qualitative processor-behavior diagrams of
// the paper's Figures 1 and 2 (per-activity banded patterns) and
// Jumpshot-style per-rank timelines from event traces.
//
// Usage:
//
//	traceview -paper -activity computation          # Figure 1
//	traceview -paper -activity point-to-point       # Figure 2
//	traceview -in run.lifp -activity all
//	traceview -paper -activity computation -format svg > fig1.svg
//	traceview -paper -activity computation -format counts
//	traceview -events run.liwp -timeline -width 100   # Jumpshot-style lanes
//
// With -window the timeline is segmented into phases (penalized
// change-point detection over the windowed imbalance trajectory):
// -phases marks the phase boundaries above the lanes and lists the
// phases, -phase N zooms the view into the Nth phase — the paper's
// "methodology points first, the timeline then shows the flagged
// window", automated:
//
//	traceview -events run.liwp -timeline -window 0.5 -phases
//	traceview -events run.liwp -timeline -window 0.5 -phase 2
//
// -stream additionally replays the trajectory window by window,
// segmenting every prefix as the live monitor segments its ring at each
// scrape, and reports when each boundary of the final segmentation was
// first flagged — the online detection latency:
//
//	traceview -events run.liwp -timeline -window 0.5 -phases -stream
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"loadimb/internal/pattern"
	"loadimb/internal/temporal"
	"loadimb/internal/timeline"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceview: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input tracefile (.lifp binary, .json or .csv)")
		usePaper   = fs.Bool("paper", false, "render the embedded paper case study")
		activity   = fs.String("activity", "all", "activity to render, or all")
		format     = fs.String("format", "ascii", "output format: ascii, svg or counts")
		band       = fs.Float64("band", 0.15, "band fraction of the range (the paper uses 0.15)")
		eventsIn   = fs.String("events", "", "event trace (.liwp event stream) for the timeline view")
		doTimeline = fs.Bool("timeline", false, "render a Jumpshot-style per-rank timeline from -events")
		width      = fs.Int("width", 100, "timeline width in columns")
		from       = fs.Float64("from", 0, "timeline window start, seconds")
		to         = fs.Float64("to", 0, "timeline window end, seconds (0 = full span)")
		window     = fs.Float64("window", 0, "temporal window width for phase segmentation, seconds")
		doPhases   = fs.Bool("phases", false, "mark phase boundaries on the timeline and list the phases (requires -window)")
		phaseZoom  = fs.Int("phase", 0, "zoom the timeline into phase N (1-based; requires -window)")
		doStream   = fs.Bool("stream", false, "segment every prefix of the trajectory, as live scrapes would, and report detection latencies (requires -window)")
		penalty    = fs.Float64("penalty", 0, "change-point penalty for the segmentation (0 = automatic)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *window < 0 || math.IsNaN(*window) || math.IsInf(*window, 0) {
		return fmt.Errorf("-window %g is not a finite width >= 0 (0 turns windowing off)", *window)
	}
	if math.IsNaN(*penalty) || math.IsInf(*penalty, 0) {
		return fmt.Errorf("-penalty %g is not finite (0 = automatic)", *penalty)
	}

	if *doTimeline {
		if *eventsIn == "" {
			return fmt.Errorf("-timeline needs -events <file.liwp>")
		}
		if (*doPhases || *phaseZoom > 0 || *doStream) && *window <= 0 {
			return fmt.Errorf("-phases, -phase and -stream need -window <dt> to define the trajectory")
		}
		evs, err := tracefmt.OpenEvents(*eventsIn)
		if err != nil {
			return err
		}
		opts := timeline.Options{Width: *width, From: *from, To: *to}
		if *activity != "all" {
			opts.Activities = []string{*activity}
		}
		var phs []temporal.Phase
		var traj []temporal.WindowStat
		if *window > 0 {
			ser, err := temporal.FoldLog(evs, temporal.Options{Window: *window, Activities: opts.Activities})
			if err != nil {
				return err
			}
			traj = ser.Stats()
			phs = temporal.Segment(traj, *penalty)
			if *phaseZoom > 0 {
				if *phaseZoom > len(phs) {
					return fmt.Errorf("phase %d of %d does not exist", *phaseZoom, len(phs))
				}
				ph := phs[*phaseZoom-1]
				opts.From, opts.To = ph.Start, ph.End
			} else if *doPhases {
				for _, ph := range phs[1:] {
					opts.Marks = append(opts.Marks, ph.Start)
				}
			}
		}
		tl, err := timeline.New(evs, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, tl.ASCII())
		if *doPhases {
			fmt.Fprintln(stdout, "phases:")
			for k, ph := range phs {
				fmt.Fprintf(stdout, "  %d. [%.3f s, %.3f s) %-5s mean window ID %.5f (%d windows)\n",
					k+1, ph.Start, ph.End, ph.Label, ph.MeanID, ph.Windows)
			}
		}
		if *doStream {
			streamReport(stdout, traj, *penalty)
		}
		return nil
	}

	cube, err := loadCube(*in, *usePaper)
	if err != nil {
		return err
	}
	activities := cube.Activities()
	if *activity != "all" {
		activities = []string{*activity}
	}
	for _, act := range activities {
		d, err := pattern.New(cube, act, pattern.Options{BandFraction: *band})
		if err != nil {
			return err
		}
		switch *format {
		case "ascii":
			fmt.Fprintln(stdout, d.ASCII())
		case "svg":
			fmt.Fprintln(stdout, d.SVG())
		case "counts":
			fmt.Fprintln(stdout, d.CountsTable())
		default:
			return fmt.Errorf("unknown format %q (want ascii, svg or counts)", *format)
		}
	}
	return nil
}

// streamReport replays the trajectory window by window, segmenting
// every prefix exactly as the live monitor segments its ring at each
// scrape, and reports when each boundary of the final segmentation was
// first flagged. A boundary's latency is how many windows beyond it had
// to arrive before the online optimum committed to it — the cost of
// monitoring live instead of post-mortem.
func streamReport(w io.Writer, traj []temporal.WindowStat, penalty float64) {
	firstSeen := map[int]int{} // boundary position -> windows fed when first flagged
	var bounds []int           // interior boundary positions of the latest prefix
	for i := range traj {
		phs := temporal.Segment(traj[:i+1], penalty)
		bounds = bounds[:0]
		pos := 0
		for _, ph := range phs[:len(phs)-1] {
			pos += ph.Windows
			bounds = append(bounds, pos)
			if _, ok := firstSeen[pos]; !ok {
				firstSeen[pos] = i + 1
			}
		}
	}
	fmt.Fprintln(w, "streaming detection (live segmenter replay, queried after every window):")
	if len(bounds) == 0 {
		fmt.Fprintln(w, "  no phase boundaries detected")
		return
	}
	for _, b := range bounds {
		fed := firstSeen[b]
		fmt.Fprintf(w, "  boundary at window %d (t=%.3f s): first flagged after window %d (latency %d windows)\n",
			b, traj[b].Start, fed-1, fed-b)
	}
}

func loadCube(path string, usePaper bool) (*trace.Cube, error) {
	switch {
	case usePaper && path != "":
		return nil, fmt.Errorf("use either -in or -paper, not both")
	case usePaper:
		return workload.ReconstructCube()
	case path == "":
		return nil, fmt.Errorf("no input: pass -in <tracefile> or -paper")
	}
	return tracefmt.OpenCube(path)
}
