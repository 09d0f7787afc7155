// Command imba analyzes a measurement cube with the load-imbalance
// methodology: it prints the paper's Tables 1-4, the Section 4 style
// summary, the region clustering and the processor view.
//
// Usage:
//
//	imba -paper -table all           # analyze the embedded case study
//	imba -in run.lifp -summary       # analyze a binary tracefile
//	imba -in run.json -table 4 -index mad
//	imba -in run.lifp -csv > out.csv
//
// Given an event trace instead of a cube, it can also analyze the run's
// temporal structure: -window prints the windowed imbalance trajectory
// (the same numbers a live imbamon serves at /timeline.json), and
// -phases segments the trajectory into phases via penalized change-point
// detection and runs the full index set on each phase:
//
//	imba -events run.liwp -window 0.5
//	imba -events run.liwp -window 0.5 -activity computation -phases
//	imba -events run.liwp -window 0.5 -per-activity
//
// -diagnose runs the automatic performance diagnosis on the trace: ranks
// are fingerprinted per detected phase, clustered into cohorts, and the
// diverged ones reported with the activity or region the divergence went
// to — the same report a live imbamon serves at /diagnose.json. -json
// prints the raw report document instead of text:
//
//	imba -events run.liwp -window 0.5 -diagnose
//	imba -events run.liwp -window 0.5 -diagnose -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"loadimb/internal/core"
	"loadimb/internal/diagnose"
	"loadimb/internal/report"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("imba: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("imba", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "input tracefile (.lifp binary, .json or .csv)")
		usePaper  = fs.Bool("paper", false, "analyze the embedded paper case study instead of a file")
		table     = fs.String("table", "", "print table 1, 2, 3, 4 or all")
		summary   = fs.Bool("summary", false, "print the findings summary")
		cluster   = fs.Bool("cluster", false, "print the region clustering")
		view      = fs.String("view", "", "print a view: processor")
		csvOut    = fs.Bool("csv", false, "print the full analysis as CSV")
		mdOut     = fs.Bool("markdown", false, "print Tables 1-4 as Markdown")
		heat      = fs.Bool("heatmap", false, "print the dispersion heat map")
		drill     = fs.String("drill", "", "drill into one region by name")
		criterion = fs.String("candidates", "", "rank tuning candidates: max, top<K>, p<Q>, zscore or threshold:<T>")
		indexName = fs.String("index", "euclidean", "index of dispersion (euclidean, variance, stddev, cov, mad, max, range, gini)")
		clusterK  = fs.Int("k", 2, "number of region clusters")
		eventsIn  = fs.String("events", "", "input event trace (.liwp event stream, as written by cfdsim -events)")
		window    = fs.Float64("window", 0, "temporal window width in seconds (requires -events)")
		windowCap = fs.Int("window-cap", 0, "max full-resolution windows retained; older ones decimate into a coarse tail (0 = unbounded, the offline default)")
		phases    = fs.Bool("phases", false, "segment the trajectory into phases and analyze each (requires -window)")
		perAct    = fs.Bool("per-activity", false, "segment each activity's own trajectory (requires -window)")
		penalty   = fs.Float64("penalty", 0, "change-point penalty for -phases (0 = automatic)")
		activity  = fs.String("activity", "", "comma-separated activities the trajectory is restricted to (e.g. computation)")
		diag      = fs.Bool("diagnose", false, "run the automatic diagnosis: cluster ranks per phase and report diverged ones (requires -events and -window)")
		jsonOut   = fs.Bool("json", false, "with -diagnose, print the raw report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *window < 0 || math.IsNaN(*window) || math.IsInf(*window, 0) {
		return fmt.Errorf("-window %g is not a finite width >= 0 (0 turns windowing off)", *window)
	}
	if (*window > 0 || *phases || *perAct || *diag) && *eventsIn == "" {
		return fmt.Errorf("-window and -phases need an event trace: pass -events <file> (cubes carry no time structure)")
	}
	if *phases && *window <= 0 {
		return fmt.Errorf("-phases needs -window <dt> to define the trajectory")
	}
	if *perAct && *window <= 0 {
		return fmt.Errorf("-per-activity needs -window <dt> to define the trajectories")
	}
	if *diag && *window <= 0 {
		return fmt.Errorf("-diagnose needs -window <dt> to define the fingerprint windows")
	}
	if math.IsNaN(*penalty) || math.IsInf(*penalty, 0) {
		return fmt.Errorf("-penalty %g is not finite (0 = automatic)", *penalty)
	}

	var lg *trace.Log
	if *eventsIn != "" {
		var err error
		if lg, err = tracefmt.OpenEvents(*eventsIn); err != nil {
			return err
		}
	}
	if *diag {
		// Diagnosis is a dedicated mode: it works on the event trace
		// alone and prints exactly what /diagnose.json serves.
		return printDiagnose(stdout, lg, *window, *penalty, *jsonOut)
	}
	cube, err := loadCube(*in, *usePaper, lg)
	if err != nil {
		return err
	}
	idx, ok := stats.IndexByName(*indexName)
	if !ok {
		return fmt.Errorf("unknown index %q", *indexName)
	}
	analysis, err := core.Analyze(cube, core.AnalyzeOptions{
		Options:  core.Options{Index: idx},
		ClusterK: *clusterK,
	})
	if err != nil {
		return err
	}

	if *csvOut {
		fmt.Fprint(stdout, report.CSV(analysis))
		return nil
	}
	if *mdOut {
		fmt.Fprint(stdout, report.Markdown(analysis))
		return nil
	}
	printed := false
	if *window > 0 {
		if err := printTemporal(stdout, lg, cube, temporalSpec{
			window:    *window,
			windowCap: *windowCap,
			phases:    *phases,
			perAct:    *perAct,
			penalty:   *penalty,
			activity:  *activity,
			opts: core.AnalyzeOptions{
				Options:  core.Options{Index: idx},
				ClusterK: *clusterK,
			},
		}); err != nil {
			return err
		}
		printed = true
	}
	if *table != "" {
		if err := printTables(stdout, analysis, *table); err != nil {
			return err
		}
		printed = true
	}
	if *cluster {
		printClusters(stdout, analysis)
		printed = true
	}
	if *view != "" {
		if err := printView(stdout, analysis, *view); err != nil {
			return err
		}
		printed = true
	}
	if *heat {
		fmt.Fprint(stdout, report.Heatmap(analysis))
		printed = true
	}
	if *drill != "" {
		if err := printDrill(stdout, analysis, cube, *drill); err != nil {
			return err
		}
		printed = true
	}
	if *criterion != "" {
		if err := printCandidates(stdout, analysis, *criterion); err != nil {
			return err
		}
		printed = true
	}
	if *summary || !printed {
		fmt.Fprint(stdout, report.Summary(analysis))
	}
	return nil
}

func loadCube(path string, usePaper bool, lg *trace.Log) (*trace.Cube, error) {
	switch {
	case usePaper && path != "":
		return nil, fmt.Errorf("use either -in or -paper, not both")
	case usePaper:
		return workload.ReconstructCube()
	case path != "":
		return tracefmt.OpenCube(path)
	case lg != nil:
		// An event trace alone is a full input: aggregate it exactly as
		// a live collector would have.
		return lg.Aggregate(nil, nil)
	}
	return nil, fmt.Errorf("no input: pass -in <tracefile>, -events <file> or -paper")
}

// temporalSpec bundles the temporal-analysis flags.
type temporalSpec struct {
	window    float64
	windowCap int
	phases    bool
	perAct    bool
	penalty   float64
	activity  string
	opts      core.AnalyzeOptions
}

// printTemporal prints the windowed imbalance trajectory and, when
// requested, the phase segmentation with the full index set per phase.
func printTemporal(w io.Writer, lg *trace.Log, cube *trace.Cube, spec temporalSpec) error {
	opts := temporal.Options{
		Window:          spec.window,
		WindowCap:       spec.windowCap,
		TrackActivities: true,
		PerActivity:     spec.perAct,
	}
	if spec.activity != "" {
		for _, name := range strings.Split(spec.activity, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Activities = append(opts.Activities, name)
			}
		}
	}
	ser, err := temporal.FoldLog(lg, opts)
	if err != nil {
		return err
	}
	traj := ser.Stats()
	scope := "all activities"
	if len(opts.Activities) > 0 {
		scope = strings.Join(opts.Activities, "+")
	}
	fmt.Fprintf(w, "imbalance trajectory (window %g s, %d procs, %s):\n", spec.window, ser.Procs, scope)
	fmt.Fprintf(w, "  %6s %9s %9s %7s %10s %9s %8s  %s\n",
		"window", "start", "end", "events", "busy", "ID", "gini", "dominant")
	printTraj := func(stats []temporal.WindowStat) {
		for _, ws := range stats {
			id := "      -"
			if ws.ID != nil {
				id = fmt.Sprintf("%9.5f", *ws.ID)
			}
			fmt.Fprintf(w, "  %6d %9.3f %9.3f %7d %10.4f %s %8.5f  %s\n",
				ws.Index, ws.Start, ws.End, ws.Events, ws.Busy, id, ws.Gini, ws.Dominant)
		}
	}
	if coarse := ser.CoarseStats(); len(coarse) > 0 {
		// A bounded fold decimated the early run: print the coarse tail
		// first (it covers the older time range), then mark the resolution
		// break before the full-resolution ring.
		fmt.Fprintf(w, "  decimated history (coarse window %g s, cap %d):\n", ser.CoarseWindow, spec.windowCap)
		printTraj(coarse)
		fmt.Fprintf(w, "  --- full resolution from window %d ---\n", ser.RingStart)
	}
	printTraj(traj)
	if spec.perAct {
		printPerActivity(w, ser, spec.penalty)
	}
	if !spec.phases {
		return nil
	}

	phs := temporal.Segment(traj, spec.penalty)
	reports, err := temporal.AnalyzePhases(lg, phs, spec.opts)
	if err != nil {
		return err
	}
	// The whole-run processor imbalance the per-phase values are compared
	// against: what the run-wide index averages away.
	wholeTotals := make([]float64, cube.NumProcs())
	for p := range wholeTotals {
		t, err := cube.ProcTotalTime(p)
		if err != nil {
			return err
		}
		wholeTotals[p] = t
	}
	whole := "-"
	if id, err := stats.EuclideanFromBalance(wholeTotals); err == nil {
		whole = fmt.Sprintf("%.5f", id)
	}
	fmt.Fprintf(w, "\nphases (penalized change-point segmentation; whole-run ID_P %s):\n", whole)
	for k, rep := range reports {
		fmt.Fprintf(w, "  phase %d [%.3f, %.3f) %-5s windows=%d mean window ID=%.5f",
			k+1, rep.Start, rep.End, rep.Label, rep.Windows, rep.MeanID)
		if rep.IDP != nil {
			fmt.Fprintf(w, " ID_P=%.5f gini=%.5f", *rep.IDP, rep.Gini)
		}
		fmt.Fprintln(w)
		if rep.Analysis == nil {
			continue
		}
		// The phase's dominant tuning candidate: the region contributing
		// the most absolute dispersion within the phase.
		best, bestVal := -1, 0.0
		for i, reg := range rep.Analysis.Regions {
			if reg.Defined && (best == -1 || reg.SID > bestVal) {
				best, bestVal = i, reg.SID
			}
		}
		if best >= 0 {
			fmt.Fprintf(w, "           top region by SID_C: %s (%.5f)\n",
				rep.Analysis.Regions[best].Name, bestVal)
		}
	}
	return nil
}

// printPerActivity segments each activity's own trajectory — a phase
// boundary in the aggregate trajectory often belongs to a single
// activity, and an activity can change phase without moving the
// aggregate at all.
func printPerActivity(w io.Writer, ser *temporal.Series, penalty float64) {
	names := ser.ActivityNames()
	if len(names) == 0 {
		fmt.Fprintln(w, "\nper-activity segmentation: the series carries no per-activity vectors")
		return
	}
	fmt.Fprintln(w, "\nper-activity segmentation (each activity's own window trajectory):")
	for _, name := range names {
		phs := temporal.Segment(ser.ActivitySeries(name).Stats(), penalty)
		fmt.Fprintf(w, "  %s: %d phases\n", name, len(phs))
		for k, ph := range phs {
			fmt.Fprintf(w, "    phase %d [%.3f, %.3f) %-5s windows %d..%d mean window ID=%.5f\n",
				k+1, ph.Start, ph.End, ph.Label, ph.FirstWindow, ph.LastWindow, ph.MeanID)
		}
	}
}

// printDiagnose runs the offline automatic diagnosis: the same fold
// (per-activity and per-region vectors), segmentation and clustering the
// live /diagnose.json endpoint performs, on the saved trace.
func printDiagnose(w io.Writer, lg *trace.Log, window, penalty float64, asJSON bool) error {
	ser, err := temporal.FoldLog(lg, temporal.Options{
		Window: window, PerActivity: true, PerRegion: true,
	})
	if err != nil {
		return err
	}
	rep := diagnose.Diagnose(ser, temporal.Segment(ser.Stats(), penalty), diagnose.Options{})
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "automatic diagnosis (window %g s, %d procs, %d fingerprint dimensions):\n",
		rep.Window, rep.Procs, len(rep.Dimensions))
	for _, pd := range rep.Phases {
		fmt.Fprintf(w, "  phase %d [%.3f, %.3f) %-5s cohorts=%d silhouette=%.3f scale=%.2g\n",
			pd.Phase, pd.Start, pd.End, pd.Label, len(pd.Cohorts), pd.Silhouette, pd.Scale)
		for c, co := range pd.Cohorts {
			fmt.Fprintf(w, "    cohort %d: %d ranks %s\n", c+1, len(co.Ranks), rankRanges(co.Ranks))
		}
	}
	if len(rep.Findings) == 0 {
		fmt.Fprintln(w, "no diverged ranks: every rank behaves like its cohort")
		return nil
	}
	fmt.Fprintf(w, "findings (%d diverged rank-phases, by score):\n", len(rep.Findings))
	for k, f := range rep.Findings {
		fmt.Fprintf(w, "  %d. %s\n", k+1, f.Summary)
		for _, c := range f.Dominant {
			dim := c.Dimension
			if c.Kind == diagnose.KindRegion {
				dim = fmt.Sprintf("region %q", c.Dimension)
			}
			pct := ""
			if c.Percent != nil {
				pct = fmt.Sprintf(" (%+.0f%% of cohort)", *c.Percent)
			}
			fmt.Fprintf(w, "     %-24s Δ%+.4f util%s\n", dim, c.Delta, pct)
		}
	}
	return nil
}

// rankRanges renders a sorted rank list compactly: [0-4 6 9-11].
func rankRanges(ranks []int) string {
	if len(ranks) == 0 {
		return "[]"
	}
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < len(ranks); {
		j := i
		for j+1 < len(ranks) && ranks[j+1] == ranks[j]+1 {
			j++
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		if j > i {
			fmt.Fprintf(&sb, "%d-%d", ranks[i], ranks[j])
		} else {
			fmt.Fprintf(&sb, "%d", ranks[i])
		}
		i = j + 1
	}
	sb.WriteByte(']')
	return sb.String()
}

func printTables(w io.Writer, a *core.Analysis, which string) error {
	tables := map[string]func() string{
		"1": func() string { return report.Table1(a.Profile) },
		"2": func() string { return report.Table2(a) },
		"3": func() string { return report.Table3(a) },
		"4": func() string { return report.Table4(a) },
	}
	if which == "all" {
		for _, k := range []string{"1", "2", "3", "4"} {
			fmt.Fprintln(w, tables[k]())
		}
		return nil
	}
	f, ok := tables[which]
	if !ok {
		return fmt.Errorf("unknown table %q (want 1, 2, 3, 4 or all)", which)
	}
	fmt.Fprintln(w, f())
	return nil
}

func printClusters(w io.Writer, a *core.Analysis) {
	if len(a.Clusters) == 0 {
		fmt.Fprintln(w, "clustering skipped (too few regions)")
		return
	}
	fmt.Fprintln(w, "region clusters (k-means on activity-time vectors):")
	for c, group := range a.Clusters {
		names := make([]string, len(group))
		for i, g := range group {
			names[i] = a.Profile.Regions[g].Region
		}
		fmt.Fprintf(w, "  cluster %d: %s\n", c+1, strings.Join(names, ", "))
	}
}

func parseCriterion(spec string) (core.Criterion, error) {
	switch {
	case spec == "max":
		return core.MaxCriterion{}, nil
	case spec == "zscore":
		return core.ZScoreCriterion{}, nil
	case strings.HasPrefix(spec, "top"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "top"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad top-K criterion %q", spec)
		}
		return core.TopKCriterion{K: k}, nil
	case strings.HasPrefix(spec, "p"):
		q, err := strconv.ParseFloat(strings.TrimPrefix(spec, "p"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad percentile criterion %q", spec)
		}
		return core.PercentileCriterion{Q: q}, nil
	case strings.HasPrefix(spec, "threshold:"):
		v, err := strconv.ParseFloat(strings.TrimPrefix(spec, "threshold:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold criterion %q", spec)
		}
		return core.ThresholdCriterion{T: v}, nil
	}
	return nil, fmt.Errorf("unknown criterion %q (want max, top<K>, p<Q>, zscore or threshold:<T>)", spec)
}

func printCandidates(w io.Writer, a *core.Analysis, spec string) error {
	c, err := parseCriterion(spec)
	if err != nil {
		return err
	}
	cands := a.TuningCandidates(c)
	if len(cands) == 0 {
		fmt.Fprintf(w, "criterion %s flags no region\n", c.Name())
		return nil
	}
	fmt.Fprintf(w, "tuning candidates by SID_C (criterion %s):\n", c.Name())
	for rank, cand := range cands {
		fmt.Fprintf(w, "  %d. %-10s SID_C %.5f\n", rank+1, a.Regions[cand.Pos].Name, cand.Value)
	}
	return nil
}

func printDrill(w io.Writer, a *core.Analysis, cube *trace.Cube, region string) error {
	i := cube.RegionIndex(region)
	if i < 0 {
		return fmt.Errorf("unknown region %q (have %v)", region, cube.Regions())
	}
	d, err := a.DrillDown(cube, i)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %.3f s (%.1f%% of the program)\n", d.Name, d.Time, d.Share*100)
	fmt.Fprintf(w, "  activities by contribution to ID_C (ID with 95%% bootstrap interval):\n")
	for _, ad := range d.Activities {
		if !ad.Defined {
			fmt.Fprintf(w, "    %-16s -\n", ad.Name)
			continue
		}
		times, err := cube.ProcTimes(i, ad.Activity)
		if err != nil {
			return err
		}
		ci, err := stats.BootstrapCI(stats.Euclidean, times, 400, 0.95, 11)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "    %-16s t=%8.3f s  weight=%5.3f  ID=%8.5f [%7.5f, %7.5f]  contribution=%8.5f\n",
			ad.Name, ad.Time, ad.Weight, ad.ID, ci.Low, ci.High, ad.Contribution)
	}
	fmt.Fprintf(w, "  most dissimilar processors (top 5 by ID_P):\n")
	for k, pd := range d.Processors {
		if k >= 5 {
			break
		}
		mark := ""
		if pd.Slowest {
			mark = "  <- slowest"
		}
		fmt.Fprintf(w, "    proc %2d: ID_P=%8.5f  time=%8.3f s%s\n", pd.Proc, pd.ID, pd.Time, mark)
	}
	return nil
}

func printView(w io.Writer, a *core.Analysis, name string) error {
	if name != "processor" {
		return fmt.Errorf("unknown view %q (tables 3 and 4 are the activity and region views)", name)
	}
	v := a.Processors
	fmt.Fprintln(w, "processor view (ID_P per region; most imbalanced processor per region marked *):")
	for i := range v.ByRegion {
		best, bestVal := -1, 0.0
		for p, d := range v.ByRegion[i] {
			if d.Defined && (best == -1 || d.ID > bestVal) {
				best, bestVal = p, d.ID
			}
		}
		fmt.Fprintf(w, "  %-10s", a.Profile.Regions[i].Region)
		for p, d := range v.ByRegion[i] {
			if !d.Defined {
				fmt.Fprintf(w, "      -  ")
				continue
			}
			mark := " "
			if p == best {
				mark = "*"
			}
			fmt.Fprintf(w, " %7.5f%s", d.ID, mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "most frequently imbalanced: processor %d (on %d regions)\n",
		v.MostFrequentlyImbalanced, len(v.Summaries[v.MostFrequentlyImbalanced].MostImbalancedOn))
	fmt.Fprintf(w, "imbalanced for the longest time: processor %d (%.3f s)\n",
		v.LongestImbalanced, v.Summaries[v.LongestImbalanced].ImbalancedTime)
	return nil
}
