package monitor

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"loadimb/internal/apps"
	"loadimb/internal/core"
	"loadimb/internal/stats"
	"loadimb/internal/trace"
)

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	lineRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

func unescapeLabel(s string) string {
	r := strings.NewReplacer(`\\`, "\x00", `\"`, `"`, `\n`, "\n")
	return strings.ReplaceAll(r.Replace(s), "\x00", `\`)
}

// parseExposition parses Prometheus text format strictly: every
// non-comment line must be a well-formed sample with a finite value,
// every sample must be preceded by a TYPE declaration of its family, and
// each family's lines (HELP, TYPE, samples) must form one contiguous
// group — a family declared twice, or whose lines reappear after another
// family's, is rejected.
func parseExposition(t *testing.T, text string) []sample {
	t.Helper()
	typed := map[string]string{}
	closed := map[string]bool{}
	current := ""
	group := func(n int, family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Fatalf("line %d: family %q reappears after family %q; its samples must form one group", n+1, family, current)
		}
		closed[current] = true
		current = family
	}
	var out []sample
	for n, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "gauge" && fields[3] != "counter") {
				t.Fatalf("line %d: malformed TYPE: %q", n+1, line)
			}
			if _, dup := typed[fields[2]]; dup {
				t.Fatalf("line %d: family %q declared twice", n+1, fields[2])
			}
			group(n, fields[2])
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if !strings.HasPrefix(line, "# HELP ") || len(fields) < 3 {
				t.Fatalf("line %d: unexpected comment %q", n+1, line)
			}
			group(n, fields[2])
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample: %q", n+1, line)
		}
		group(n, m[1])
		typ, ok := typed[m[1]]
		if !ok {
			t.Fatalf("line %d: sample %q has no TYPE declaration", n+1, m[1])
		}
		if typ == "counter" && !strings.HasSuffix(m[1], "_total") {
			t.Errorf("counter %q does not end in _total", m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", n+1, m[3], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("line %d: non-finite value %g", n+1, v)
		}
		s := sample{name: m[1], labels: map[string]string{}, value: v}
		if m[2] != "" {
			rest := m[2]
			for _, lm := range labelRe.FindAllStringSubmatch(rest, -1) {
				s.labels[lm[1]] = unescapeLabel(lm[2])
			}
		}
		out = append(out, s)
	}
	return out
}

// key canonicalizes a sample identity for lookup.
func (s sample) key() string {
	pairs := make([]string, 0, len(s.labels))
	for k, v := range s.labels {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return s.name + "|" + strings.Join(pairs, ",")
}

func indexSamples(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.key()] = s.value
	}
	return out
}

func lookup(t *testing.T, m map[string]float64, name string, labels ...string) float64 {
	t.Helper()
	s := sample{name: name, labels: map[string]string{}}
	for i := 0; i+1 < len(labels); i += 2 {
		s.labels[labels[i]] = labels[i+1]
	}
	v, ok := m[s.key()]
	if !ok {
		t.Fatalf("metric %s{%v} not exposed", name, s.labels)
	}
	return v
}

// TestMetricsMatchOfflineAnalysis is the golden test of the exposition:
// the gauges must reproduce core.Analyze on the same cube to 1e-9.
func TestMetricsMatchOfflineAnalysis(t *testing.T) {
	cfg := apps.DefaultMasterWorker()
	cfg.Procs = 5
	cfg.Tasks = 24
	c := NewCollector(Options{})
	cfg.Sink = c
	res, err := apps.MasterWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got := indexSamples(parseExposition(t, buf.String()))

	cube := snap.Cube
	analysis, err := core.Analyze(cube, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	check := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.12g, want %.12g", what, got, want)
		}
	}
	check("program time", lookup(t, got, MetricProgramTime), cube.ProgramTime())
	check("instrumented", lookup(t, got, MetricInstrumented), cube.RegionsTotal())
	check("procs", lookup(t, got, MetricProcs), float64(cube.NumProcs()))
	check("events", lookup(t, got, MetricEventsTotal), float64(res.Log.Len()))

	regions, activities := cube.Regions(), cube.Activities()
	for _, a := range analysis.Activities {
		if !a.Defined {
			continue
		}
		check("id_a "+a.Name, lookup(t, got, MetricIDActivity, "activity", a.Name), a.ID)
		check("sid_a "+a.Name, lookup(t, got, MetricSIDActivity, "activity", a.Name), a.SID)
	}
	for _, r := range analysis.Regions {
		if !r.Defined {
			continue
		}
		check("id_c "+r.Name, lookup(t, got, MetricIDRegion, "region", r.Name), r.ID)
		check("sid_c "+r.Name, lookup(t, got, MetricSIDRegion, "region", r.Name), r.SID)
	}
	for i := range analysis.Cells {
		for j, cell := range analysis.Cells[i] {
			if !cell.Defined {
				continue
			}
			check(fmt.Sprintf("id_ij %d/%d", i, j),
				lookup(t, got, MetricIDCell, "region", regions[i], "activity", activities[j]),
				cell.ID)
		}
	}
	for i := range analysis.Processors.ByRegion {
		for p, d := range analysis.Processors.ByRegion[i] {
			if !d.Defined {
				continue
			}
			check(fmt.Sprintf("id_p %d/%d", i, p),
				lookup(t, got, MetricIDProc, "region", regions[i], "proc", strconv.Itoa(p)),
				d.ID)
		}
	}
	check("gini", lookup(t, got, MetricGini), stats.Gini.Of(snap.ProcTotals()))
}

func TestMetricsEmptySnapshot(t *testing.T) {
	c := NewCollector(Options{})
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := indexSamples(parseExposition(t, buf.String()))
	if v := lookup(t, got, MetricEventsTotal); v != 0 {
		t.Errorf("events_total = %g on empty collector", v)
	}
	for k := range got {
		if strings.HasPrefix(k, MetricIDRegion) {
			t.Errorf("empty collector exposed %s", k)
		}
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	c := NewCollector(Options{})
	evil := "loop \"7\"\\ has\nnewlines"
	c.Record(trace.Event{Rank: 0, Region: evil, Activity: "a", Start: 0, End: 1})
	c.Record(trace.Event{Rank: 1, Region: evil, Activity: "a", Start: 0, End: 2})
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	found := false
	for _, s := range samples {
		if s.name == MetricRegionSeconds && s.labels["region"] == evil {
			found = true
			if math.Abs(s.value-1.5) > 1e-12 {
				t.Errorf("region seconds = %g, want 1.5", s.value)
			}
		}
	}
	if !found {
		t.Fatalf("escaped region label did not round-trip; exposition:\n%s", buf.String())
	}
}
