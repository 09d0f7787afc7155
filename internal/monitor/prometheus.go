package monitor

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"loadimb/internal/stats"
	"loadimb/internal/temporal"
)

// Metric family names served at /metrics. Every dispersion gauge carries
// the value the offline analysis (core.Analyze) computes for the same
// cube.
const (
	MetricEventsTotal   = "loadimb_events_total"
	MetricDroppedTotal  = "loadimb_events_dropped_total"
	MetricProcs         = "loadimb_procs"
	MetricProgramTime   = "loadimb_program_time_seconds"
	MetricInstrumented  = "loadimb_instrumented_seconds"
	MetricRegionSeconds = "loadimb_region_seconds"
	MetricActSeconds    = "loadimb_activity_seconds"
	MetricProcSeconds   = "loadimb_proc_seconds"
	MetricIDCell        = "loadimb_id_ij"
	MetricIDActivity    = "loadimb_id_a"
	MetricSIDActivity   = "loadimb_sid_a"
	MetricIDRegion      = "loadimb_id_c"
	MetricSIDRegion     = "loadimb_sid_c"
	MetricIDProc        = "loadimb_id_p"
	MetricGini          = "loadimb_gini"
	MetricCellEvents    = "loadimb_cell_events_total"
	MetricCellDurMean   = "loadimb_event_duration_seconds_mean"
	MetricCellDurStddev = "loadimb_event_duration_seconds_stddev"
	MetricWindowID      = "loadimb_window_id"
	MetricWindowGini    = "loadimb_window_gini"
	MetricPhaseCurrent  = "loadimb_phase_current"
	MetricPhaseChanges  = "loadimb_phase_changes_total"
	MetricPhaseSeconds  = "loadimb_phase_seconds"
	MetricDiagOutliers  = "loadimb_diag_outlier_ranks"
	MetricDiagCohorts   = "loadimb_diag_cohorts"
	MetricDiagScore     = "loadimb_diag_score"
)

// A MetricsWriter renders Prometheus text-format (version 0.0.4) metric
// families. Family opens a family with its HELP and TYPE lines and the
// Sample calls that follow belong to it, so every family's samples form
// the one contiguous group the format requires. The first write error is
// remembered so call sites stay linear. Every /metrics family in the
// repository goes through this writer.
type MetricsWriter struct {
	w      io.Writer
	family string
	err    error
}

// NewMetricsWriter returns a writer appending to w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: w}
}

func (m *MetricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// Family opens the metric family name: its HELP/TYPE preamble now, its
// samples through the Sample calls up to the next Family.
func (m *MetricsWriter) Family(name, help, typ string) {
	m.family = name
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample of the open family; labels are Label pairs.
// Non-finite values are skipped: Prometheus would accept NaN but a NaN
// gauge only poisons downstream queries.
func (m *MetricsWriter) Sample(v float64, labels ...string) {
	if m.err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	lbl := ""
	if len(labels) > 0 {
		lbl = "{" + strings.Join(labels, ",") + "}"
	}
	m.printf("%s%s %s\n", m.family, lbl, strconv.FormatFloat(v, 'g', -1, 64))
}

// labelEscaper applies the text format's label-value escaping.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one key="value" pair, escaping backslashes, double
// quotes and newlines in the value as the text format requires.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// WriteMetrics renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): the collector counters, the cube marginals, and
// every dispersion index of the paper — ID_ij per cell, ID_A/SID_A per
// activity, ID_C/SID_C per region, ID_P per (region, processor), plus the
// Gini coefficient of the per-processor total times. Gauge values agree
// with core.Analyze on the snapshot cube exactly (they are computed by
// the same view functions).
func WriteMetrics(w io.Writer, snap *Snapshot) error {
	m := NewMetricsWriter(w)
	m.Family(MetricEventsTotal, "Events recorded by the collector.", "counter")
	m.Sample(float64(snap.Events))
	m.Family(MetricDroppedTotal, "Malformed events rejected by the collector.", "counter")
	m.Sample(float64(snap.Dropped))
	cube := snap.Cube
	if cube == nil || cube.ProgramTime() <= 0 {
		// Nothing measured yet: serve the counters only.
		return m.err
	}
	regions, activities := cube.Regions(), cube.Activities()

	m.Family(MetricProcs, "Processors observed in the trace.", "gauge")
	m.Sample(float64(cube.NumProcs()))
	m.Family(MetricProgramTime, "Wall clock time T of the program so far.", "gauge")
	m.Sample(cube.ProgramTime())
	m.Family(MetricInstrumented, "Wall clock time of the instrumented regions.", "gauge")
	m.Sample(cube.RegionsTotal())

	m.Family(MetricRegionSeconds, "Wall clock time t_i of each code region.", "gauge")
	for i, name := range regions {
		t, err := cube.RegionTime(i)
		if err != nil {
			return err
		}
		m.Sample(t, Label("region", name))
	}
	m.Family(MetricActSeconds, "Wall clock time T_j of each activity.", "gauge")
	for j, name := range activities {
		t, err := cube.ActivityTime(j)
		if err != nil {
			return err
		}
		m.Sample(t, Label("activity", name))
	}
	m.Family(MetricProcSeconds, "Total instrumented time of each processor.", "gauge")
	for p := 0; p < cube.NumProcs(); p++ {
		t, err := cube.ProcTotalTime(p)
		if err != nil {
			return err
		}
		m.Sample(t, Label("proc", strconv.Itoa(p)))
	}

	// The dispersion views, computed once per snapshot by the same code
	// paths core.Analyze uses and memoized on the snapshot, so repeated
	// scrapes of an unchanged snapshot serve cached values.
	views, err := snap.Views()
	if err != nil {
		return err
	}
	m.Family(MetricIDCell, "Index of dispersion ID_ij of cell (region, activity).", "gauge")
	for i := range views.Cells {
		for j := range views.Cells[i] {
			if !views.Cells[i][j].Defined {
				continue
			}
			m.Sample(views.Cells[i][j].ID, Label("region", regions[i]), Label("activity", activities[j]))
		}
	}
	// An index and its scaled variant are two families, so each takes
	// its own pass over the view.
	m.Family(MetricIDActivity, "Activity-view index of dispersion ID_A.", "gauge")
	for _, a := range views.Activities {
		if a.Defined {
			m.Sample(a.ID, Label("activity", a.Name))
		}
	}
	m.Family(MetricSIDActivity, "Scaled activity-view index SID_A.", "gauge")
	for _, a := range views.Activities {
		if a.Defined {
			m.Sample(a.SID, Label("activity", a.Name))
		}
	}
	m.Family(MetricIDRegion, "Code-region-view index of dispersion ID_C.", "gauge")
	for _, r := range views.Regions {
		if r.Defined {
			m.Sample(r.ID, Label("region", r.Name))
		}
	}
	m.Family(MetricSIDRegion, "Scaled code-region-view index SID_C.", "gauge")
	for _, r := range views.Regions {
		if r.Defined {
			m.Sample(r.SID, Label("region", r.Name))
		}
	}
	m.Family(MetricIDProc, "Processor-view dispersion ID_P of (region, processor).", "gauge")
	for i := range views.Processors.ByRegion {
		for p := range views.Processors.ByRegion[i] {
			d := views.Processors.ByRegion[i][p]
			if !d.Defined {
				continue
			}
			m.Sample(d.ID, Label("region", regions[i]), Label("proc", strconv.Itoa(p)))
		}
	}
	m.Family(MetricGini, "Gini coefficient of the per-processor total times.", "gauge")
	m.Sample(giniOf(snap.ProcTotals()))

	// Per-cell event-duration statistics from the streaming accumulators,
	// one family per statistic.
	for _, fam := range []struct {
		name, help, typ string
		value           func(stats.Accumulator) float64
	}{
		{MetricCellEvents, "Events folded into cell (region, activity).", "counter",
			func(acc stats.Accumulator) float64 { return float64(acc.N()) }},
		{MetricCellDurMean, "Mean event duration of cell (region, activity).", "gauge",
			stats.Accumulator.Mean},
		{MetricCellDurStddev, "Event duration standard deviation of cell (region, activity).", "gauge",
			stats.Accumulator.StdDev},
	} {
		m.Family(fam.name, fam.help, fam.typ)
		for i := range snap.CellStats {
			for j := range snap.CellStats[i] {
				if acc := snap.CellStats[i][j]; acc.N() > 0 {
					m.Sample(fam.value(acc), Label("region", regions[i]), Label("activity", activities[j]))
				}
			}
		}
	}

	if len(snap.Windows) > 0 {
		last := snap.Windows[len(snap.Windows)-1]
		m.Family(MetricWindowID, "Dispersion of per-processor load in the latest window.", "gauge")
		if last.ID != nil {
			// An all-idle window has no defined dispersion; omitting the
			// sample beats serving a misleading 0 ("perfectly balanced").
			m.Sample(*last.ID, Label("window", strconv.Itoa(last.Index)))
		}
		m.Family(MetricWindowGini, "Gini of per-processor load in the latest window.", "gauge")
		m.Sample(last.Gini, Label("window", strconv.Itoa(last.Index)))
	}

	// Live phase detection: the streaming PELT segmentation of the window
	// trajectory (see /phases.json for the full boundary history).
	if len(snap.Phases) > 0 {
		current := snap.Phases[len(snap.Phases)-1]
		m.Family(MetricPhaseCurrent, "1 for the label of the phase the run is currently in, 0 for the others.", "gauge")
		for _, l := range []string{temporal.LabelIdle, temporal.LabelQuiet, temporal.LabelHot} {
			v := 0.0
			if l == current.Label {
				v = 1
			}
			m.Sample(v, Label("label", l))
		}
		m.Family(MetricPhaseChanges, "Phase boundaries detected in the trajectory so far.", "counter")
		m.Sample(float64(len(snap.Phases) - 1))
		m.Family(MetricPhaseSeconds, "Virtual time spent in phases of each label so far.", "gauge")
		bylabel := map[string]float64{}
		for _, ph := range snap.Phases {
			bylabel[ph.Label] += ph.End - ph.Start
		}
		for _, l := range []string{temporal.LabelIdle, temporal.LabelQuiet, temporal.LabelHot} {
			if t, ok := bylabel[l]; ok {
				m.Sample(t, Label("label", l))
			}
		}
	}

	// Automatic diagnosis: the rank-similarity findings, memoized per
	// fold generation like the views above.
	if rep := snap.Diagnosis(); rep != nil {
		m.Family(MetricDiagOutliers, "Distinct ranks currently flagged as diverged from their cohort.", "gauge")
		distinct := map[int]bool{}
		for _, f := range rep.Findings {
			distinct[f.Rank] = true
		}
		m.Sample(float64(len(distinct)))
		m.Family(MetricDiagCohorts, "Rank-similarity cohorts detected in each phase.", "gauge")
		for _, pd := range rep.Phases {
			m.Sample(float64(len(pd.Cohorts)), Label("phase", strconv.Itoa(pd.Phase)))
		}
		m.Family(MetricDiagScore, "Divergence score (pooled-scatter units) of each finding.", "gauge")
		for _, f := range rep.Findings {
			rank := strconv.Itoa(f.Rank)
			if f.RankLabel != "" {
				rank = f.RankLabel
			}
			lbls := []string{Label("rank", rank), Label("phase", strconv.Itoa(f.Phase))}
			if len(f.Dominant) > 0 {
				lbls = append(lbls, Label("dominant", f.Dominant[0].Dimension))
			}
			m.Sample(f.Score, lbls...)
		}
	}
	return m.err
}
