package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"loadimb/internal/core"
	"loadimb/internal/monitor"
	"loadimb/internal/stats"
	"loadimb/internal/tracefmt"
)

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// scrapeKey canonicalizes a metric identity: name|k=v,k=v with sorted labels.
func scrapeKey(name string, labels ...string) string {
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "|" + strings.Join(pairs, ",")
}

// parseMetrics parses a Prometheus text exposition into key -> value,
// failing the test on any malformed or non-finite sample line.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	unescape := func(s string) string {
		r := strings.NewReplacer(`\\`, "\x00", `\"`, `"`, `\n`, "\n")
		return strings.ReplaceAll(r.Replace(s), "\x00", `\`)
	}
	out := map[string]float64{}
	for n, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("metrics line %d is not a valid sample: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metrics line %d has bad value %q", n+1, m[3])
		}
		var labels []string
		for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
			labels = append(labels, lm[1], unescape(lm[2]))
		}
		out[scrapeKey(m[1], labels...)] = v
	}
	return out
}

// testClient bounds every test request: a hung daemon must fail the test
// fast instead of stalling the whole CI run.
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
	d, err := parseArgs([]string{"-workload", "wavefront", "-procs", "9", "-repeat", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if d.workload != "wavefront" || d.procs != 9 || d.repeat != 3 {
		t.Fatalf("parsed %+v", d)
	}
	if _, err := parseArgs([]string{"-workload", "mandelbrot"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := parseArgs([]string{"stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
	// A negative or non-finite -window would silently turn windowing off
	// and leave /timeline.json, /phases.json and /diagnose.json at 503.
	for _, w := range []string{"-5", "NaN", "+Inf"} {
		if _, err := parseArgs([]string{"-window", w}); err == nil {
			t.Errorf("-window %s accepted", w)
		}
	}
	if _, err := parseArgs([]string{"-window-cap", "-1"}); err == nil {
		t.Error("negative -window-cap accepted: the window cap cannot be disabled")
	}
	if _, err := parseArgs([]string{"-window", "0", "-window-cap", "0"}); err != nil {
		t.Errorf("-window 0 -window-cap 0 (windowing off, default cap) rejected: %v", err)
	}
}

// TestDaemonLiveMetrics is the end-to-end acceptance test: the daemon
// runs a built-in workload, /healthz answers 200, /metrics stays
// parseable mid-run, and once the workload finishes the served gauges
// agree with an offline core.Analyze of the served cube to 1e-9.
func TestDaemonLiveMetrics(t *testing.T) {
	d, err := parseArgs([]string{
		"-addr", "127.0.0.1:0",
		"-workload", "masterworker",
		"-procs", "5", "-tasks", "40",
		"-repeat", "2", "-window", "2",
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

	if code, body := httpGet(t, d.url+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}

	// Scrape while the workload runs: every exposition must parse,
	// whatever progress the collector has made.
	midScrapes := 0
workload:
	for {
		select {
		case <-d.workloadDone:
			break workload
		default:
			code, body := httpGet(t, d.url+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("mid-run /metrics = %d", code)
			}
			parseMetrics(t, body)
			midScrapes++
		}
	}
	t.Logf("completed %d mid-run scrapes", midScrapes)

	// Workload finished: the served cube must round-trip through
	// tracefmt and the gauges must match offline analysis of it.
	code, cubeBody := httpGet(t, d.url+"/cube.json")
	if code != http.StatusOK {
		t.Fatalf("/cube.json = %d", code)
	}
	cube, err := tracefmt.ReadCubeJSON(strings.NewReader(cubeBody))
	if err != nil {
		t.Fatalf("served cube does not parse: %v", err)
	}
	analysis, err := core.Analyze(cube, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	code, metricsBody := httpGet(t, d.url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	got := parseMetrics(t, metricsBody)
	const tol = 1e-9
	check := func(what, key string, want float64) {
		t.Helper()
		v, ok := got[key]
		if !ok {
			t.Errorf("%s: metric %s not exposed", what, key)
			return
		}
		if math.Abs(v-want) > tol {
			t.Errorf("%s = %.12g, want %.12g", what, v, want)
		}
	}
	check("program time", scrapeKey(monitor.MetricProgramTime), cube.ProgramTime())
	check("procs", scrapeKey(monitor.MetricProcs), float64(cube.NumProcs()))
	for _, a := range analysis.Activities {
		if !a.Defined {
			continue
		}
		check("id_a "+a.Name, scrapeKey(monitor.MetricIDActivity, "activity", a.Name), a.ID)
		check("sid_a "+a.Name, scrapeKey(monitor.MetricSIDActivity, "activity", a.Name), a.SID)
	}
	for _, r := range analysis.Regions {
		if !r.Defined {
			continue
		}
		check("id_c "+r.Name, scrapeKey(monitor.MetricIDRegion, "region", r.Name), r.ID)
		check("sid_c "+r.Name, scrapeKey(monitor.MetricSIDRegion, "region", r.Name), r.SID)
	}
	regions := cube.Regions()
	for i := range analysis.Processors.ByRegion {
		for p, dv := range analysis.Processors.ByRegion[i] {
			if !dv.Defined {
				continue
			}
			check("id_p "+regions[i],
				scrapeKey(monitor.MetricIDProc, "region", regions[i], "proc", strconv.Itoa(p)), dv.ID)
		}
	}
	perProc := make([]float64, cube.NumProcs())
	for p := range perProc {
		v, err := cube.ProcTotalTime(p)
		if err != nil {
			t.Fatal(err)
		}
		perProc[p] = v
	}
	check("gini", scrapeKey(monitor.MetricGini), stats.Gini.Of(perProc))

	// Temporal windows were produced (repeat=2 shifts the second run
	// past the first, so the timeline spans both): the latest-window
	// dispersion gauge must be present.
	foundWindow := false
	for k, v := range got {
		if strings.HasPrefix(k, monitor.MetricWindowID+"|window=") {
			foundWindow = true
			if v < 0 {
				t.Errorf("negative window ID gauge %s = %g", k, v)
			}
		}
	}
	if !foundWindow {
		t.Error("no window ID gauge exposed despite -window 2")
	}

	// Live phase detection rides on the same window series: /phases.json
	// must answer with at least one phase and the scrape must carry the
	// phase gauges for the finished run.
	code, phasesBody := httpGet(t, d.url+"/phases.json")
	if code != http.StatusOK {
		t.Fatalf("/phases.json = %d", code)
	}
	if !strings.Contains(phasesBody, `"phases"`) || !strings.Contains(phasesBody, `"label"`) {
		t.Errorf("phases payload lacks phase list: %s", phasesBody)
	}
	if _, ok := got[scrapeKey(monitor.MetricPhaseChanges)]; !ok {
		t.Errorf("metric %s not exposed despite windowing", monitor.MetricPhaseChanges)
	}
	currentSum := 0.0
	for _, l := range []string{"idle", "quiet", "hot"} {
		currentSum += got[scrapeKey(monitor.MetricPhaseCurrent, "label", l)]
	}
	if currentSum != 1 {
		t.Errorf("phase_current gauges sum to %g, want exactly one label set", currentSum)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon exited with error: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "serving on http://") ||
		!strings.Contains(out, "most imbalanced region") ||
		!strings.Contains(out, "phases detected") {
		t.Errorf("unexpected daemon output:\n%s", out)
	}
}

// TestDaemonExitFlag checks that -exit terminates the daemon on its own
// after the linger period, without an interrupt.
func TestDaemonExitFlag(t *testing.T) {
	d, err := parseArgs([]string{
		"-addr", "127.0.0.1:0",
		"-workload", "amr", "-procs", "4", "-phases", "3",
		"-exit", "-linger", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- d.run(context.Background(), &buf) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on its own")
	}
}
