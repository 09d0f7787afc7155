// Command bench is the repository's benchmark harness. It drives the
// pipeline — ingest, fold, snapshot, analysis, HTTP exposition,
// federation, and the simulated applications with their rebalancer —
// through the public APIs of the internal packages, measures it from
// outside, checks its outputs, and prints one JSON result line.
//
//	go run . -workload fleet -seed 1 -seconds 20 -trace 0 [-out run.json] [-spans spans.jsonl]
//	go run . summarize spans.jsonl...
//	go run . compare base/*.json change/*.json
//
// Run from the repository root through bench/run.sh, which builds the
// harness first; see README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "summarize":
			os.Exit(summarizeMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// A system is one workload's running pipeline.
type system interface {
	// run drives the load until ctx is done and returns once every
	// goroutine it started has exited.
	run(ctx context.Context)
	// finish drains the pipeline after the load stopped, checks its
	// outputs through rec, and adds the workload's own metrics to res.
	finish(res *result)
	// close releases everything setup created.
	close()
}

// A prepareFunc generates a workload's inputs from the seed, untimed, and
// returns the buildFunc that builds its pipeline over those inputs: the
// set-up a run times, several times over.
type (
	prepareFunc func(seed int64) (buildFunc, error)
	buildFunc   func(tr *tracer, rec *recorder) (system, error)
)

// A workload is one entry of the benchmark. A busy workload keeps the CPUs
// busy whatever their speed, so its CPU time per second does not follow
// the host's speed, and calibrating it would only add the host's speed to
// it: its CPU per operation is reported uncalibrated.
type workload struct {
	name    string
	prepare prepareFunc
	busy    bool
}

// workloads lists the workloads in the order they are documented.
var workloads = []workload{
	{"ingest", prepareIngest, false},
	{"fleet", prepareFleet, true},
	{"query", prepareQuery, false},
	{"observed_app", prepareApp, false},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// recorder collects a run's operation latencies, named samples and
// outcomes. An operation belongs to the measured interval, and to a
// traced slice, according to the state when it started.
type recorder struct {
	tr        *tracer
	measuring atomic.Bool

	mu        sync.Mutex
	ops       map[string][]opSample // measured latencies by class, untraced slices
	tracedOps map[string][]opSample // the same for traced slices
	samples   map[string][]float64
	attempted int
	failed    int
	errs      []string
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, ops: make(map[string][]opSample), tracedOps: make(map[string][]opSample),
		samples: make(map[string][]float64)}
}

// opState is what an operation remembers from its start.
type opState struct {
	measured, traced bool
	at               time.Time
}

// opSample is one operation's latency and when it started.
type opSample struct {
	at time.Time
	ms float64
}

func (r *recorder) begin() opState {
	return opState{measured: r.measuring.Load(), traced: r.tr.recording(), at: time.Now()}
}

// op records one operation: its outcome always, its latency when it
// started inside the measured interval.
func (r *recorder) op(s opState, latency time.Duration, err error) {
	r.classOp(s, "", latency, err)
}

// classOp is op for a workload whose operations fall into classes of very
// different cost (the query workload's endpoints).
func (r *recorder) classOp(s opState, class string, latency time.Duration, err error) {
	r.check(err)
	if !s.measured || err != nil {
		return
	}
	o := opSample{at: s.at, ms: ms(latency)}
	r.mu.Lock()
	if s.traced {
		r.tracedOps[class] = append(r.tracedOps[class], o)
	} else {
		r.ops[class] = append(r.ops[class], o)
	}
	r.mu.Unlock()
}

// classMs returns the wall latencies of one class's untraced operations.
func (r *recorder) classMs(class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := make([]float64, len(r.ops[class]))
	for i, o := range r.ops[class] {
		v[i] = o.ms
	}
	return v
}

// sample records a named value observed inside the measured interval.
func (r *recorder) sample(s opState, name string, v float64) {
	if !s.measured {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// check counts one attempted operation or correctness check, and a
// failure when err is set.
func (r *recorder) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// checkf is check with a formatted failure when ok is false.
func (r *recorder) checkf(ok bool, format string, args ...any) {
	if ok {
		r.check(nil)
		return
	}
	r.check(fmt.Errorf(format, args...))
}

func (r *recorder) samplesOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// metric is one reported value; N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run reports; -out writes it as JSON.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	GoVersion  string            `json:"go_version"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func (res *result) set(name string, v float64, unit string, n int) {
	res.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setLatency reports the p50 and p99 of ms-valued samples as name.p50 and
// name.p99.
func (res *result) setLatency(name, unit string, vals []float64) {
	s := sortedCopy(vals)
	res.set(name+".p50", percentile(s, 0.50), unit, len(s))
	res.set(name+".p99", percentile(s, 0.99), unit, len(s))
}

// processCPU is the process's user and system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the process-wide counters read around the measured
// interval.
type runtimeSample struct {
	cpu        time.Duration
	totalAlloc uint64
	gcCPU      float64
	allCPU     float64
}

func readRuntime() runtimeSample {
	s := runtimeSample{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc = ms.TotalAlloc
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	if m[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = m[1].Value.Float64()
	}
	return s
}

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	warmup   float64
	trace    bool
	setups   int
}

// traceSlice is the length of the alternating untraced/traced slices of a
// traced run: comparing the two halves of one run gives the tracing
// overhead without a second run. It is not a whole number of seconds, so
// once-a-second activity does not fall into only one kind of slice.
const traceSlice = 1500 * time.Millisecond

// A run builds its workload at least minSetups times, and keeps building
// it until setupBudget has been spent or maxSetups reached: a set-up of a
// fraction of a millisecond varies with the scheduler and the heap, and
// the median of a couple of hundred settles that. The load then runs
// warmupSeconds unmeasured.
const (
	minSetups     = 5
	setupBudget   = time.Second
	maxSetups     = 201
	warmupSeconds = 3
)

// sampleEvery is how often the measured interval samples the live heap
// and the process's CPU time.
const sampleEvery = 100 * time.Millisecond

// liveHeapMiB is the heap the last completed GC cycle found live: the
// retained state of the pipeline under load, without forcing a collection
// that would perturb it.
func liveHeapMiB() float64 {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	if m[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(m[0].Value.Uint64()) / (1 << 20)
}

// cpuPoint is the process's CPU time read at one moment.
type cpuPoint struct {
	at  time.Time
	cpu time.Duration
}

// run executes one workload: set-up (several times, keeping the last
// pipeline), warm-up, the measured interval, then drain and checks. The
// host's speed is sampled throughout, and the end-to-end times are
// calibrated by it.
func run(o options) (*result, []span, float64, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, nil, 0, fmt.Errorf("unknown workload %q", o.workload)
	}
	build, err := w.prepare(o.seed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s inputs: %w", o.workload, err)
	}
	cal := startCalibrator()
	tr := newTracer()
	rec := newRecorder(tr)
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: make(map[string]metric),
	}
	if o.trace {
		res.Trace = 1
	}
	var sys system
	var setupS, setupCal []float64
	var setupAt []time.Time
	var setupTotal time.Duration
	for len(setupS) < o.setups || (setupTotal < setupBudget && len(setupS) < maxSetups) {
		if sys != nil {
			sys.close()
			sys = nil // let the collection below free it
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build(tr, rec)
		if err != nil {
			cal.close()
			return nil, nil, 0, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		d := time.Since(t0)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
		setupAt = append(setupAt, t0)
		sys = s
	}
	runtime.GC()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.run(ctx)
	}()
	time.Sleep(time.Duration(o.warmup * float64(time.Second)))

	before := readRuntime()
	start := time.Now()
	rec.measuring.Store(true)
	measured := time.Duration(o.seconds * float64(time.Second))
	slice := min(traceSlice, measured/2)
	var traced time.Duration
	var live []float64
	cpu := []cpuPoint{{start, before.cpu}}
	last := start
	for {
		now := time.Now()
		if tr.recording() {
			traced += now.Sub(last)
		}
		last = now
		el := now.Sub(start)
		if el >= measured {
			break
		}
		if o.trace {
			tr.on.Store((el/slice)%2 == 1)
		}
		live = append(live, liveHeapMiB())
		cpu = append(cpu, cpuPoint{now, processCPU()})
		time.Sleep(min(sampleEvery, measured-el))
	}
	tr.on.Store(false)
	rec.measuring.Store(false)
	elapsed := time.Since(start)
	after := readRuntime()
	cpu = append(cpu, cpuPoint{time.Now(), after.cpu})
	cal.close() // its samples cover the measured interval; the rest is drain
	cancel()
	<-done

	sys.finish(res)
	sys.close()

	secs := elapsed.Seconds()
	rec.mu.Lock()
	rawP50, rawOps := classLatencies(rec.ops, nil)
	p50, ops := classLatencies(rec.ops, cal)
	tracedP50, tracedOps := classLatencies(rec.tracedOps, cal)
	res.Attempted, res.Failed, res.Errors = rec.attempted, rec.failed, rec.errs
	rec.mu.Unlock()
	res.Correct = res.Failed == 0 && len(ops) > 0

	for i, t := range setupAt {
		setupCal = append(setupCal, cal.calibrate(setupS[i], t))
	}
	cpuMs := ms(after.cpu - before.cpu)
	if !w.busy {
		cpuMs = 0
		for i := 1; i < len(cpu); i++ {
			mid := cpu[i-1].at.Add(cpu[i].at.Sub(cpu[i-1].at) / 2)
			cpuMs += cal.calibrate(ms(cpu[i].cpu-cpu[i-1].cpu), mid)
		}
	}
	n := len(ops) + len(tracedOps)
	res.set("setup_s", median(setupCal), "s", len(setupCal))
	res.set("p50_ms", p50, "ms", len(ops))
	res.set("p99_ms", percentile(ops, 0.99), "ms", len(ops))
	res.set("cpu_ms_per_op", cpuMs/float64(max(n, 1)), "ms", n)
	res.set("heap_retained_mb", median(live), "MiB", len(live))
	res.set("raw.setup_s", median(setupS), "s", len(setupS))
	res.set("raw.p50_ms", rawP50, "ms", len(rawOps))
	res.set("raw.p99_ms", percentile(rawOps, 0.99), "ms", len(rawOps))
	res.set("raw.cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(max(n, 1)), "ms", n)
	kernelMs, kernelN := cal.kernelMs()
	res.set("host.kernel_ms", kernelMs, "ms", kernelN)
	res.set("runtime.alloc_mb_per_s", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/secs, "MiB/s", 1)
	if d := after.allCPU - before.allCPU; d > 0 {
		res.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/d, "fraction", 1)
	} else {
		res.set("runtime.gc_cpu_frac", 0, "fraction", 1)
	}
	res.set("runtime.goroutines_end", float64(runtime.NumGoroutine()), "count", 1)

	if !o.trace {
		return res, nil, 0, nil
	}
	spans := tr.recorded()
	tsecs := traced.Seconds()
	overhead := 0.0
	if p50 > 0 && tracedP50 > 0 {
		overhead = tracedP50/p50 - 1
	}
	res.set("bench.trace_overhead_frac", overhead, "fraction", len(tracedOps))
	addLayerMetrics(res, spans, tsecs)
	return res, spans, tsecs, nil
}

// classLatencies returns the p50 of latencies recorded by class — the
// median over classes of each class's median, so that with classes of very
// different cost it is a class's typical latency instead of falling into
// the gap between two classes, where it would jump with small shifts in
// either — and all the latencies pooled and sorted. With a calibrator the
// latencies are calibrated, otherwise they are wall time.
func classLatencies(byClass map[string][]opSample, cal *calibrator) (p50 float64, all []float64) {
	var medians []float64
	for _, ops := range byClass {
		v := make([]float64, len(ops))
		for i, o := range ops {
			v[i] = o.ms
			if cal != nil {
				v[i] = cal.calibrate(o.ms, o.at)
			}
		}
		all = append(all, v...)
		medians = append(medians, percentile(sortedCopy(v), 0.5))
	}
	return median(medians), sortedCopy(all)
}

// layers are the packages whose busy time the traced run attributes.
var layers = []string{"monitor", "core", "diagnose", "serve", "federate", "cfd", "apps"}

// addLayerMetrics derives the per-layer metrics from the traced spans:
// each layer's busy time as cores (self time per traced second) and the
// p50/p99 duration of every span name ("serve.delta_ms.p50").
func addLayerMetrics(res *result, spans []span, tracedSeconds float64) {
	self := selfTimes(spans)
	busy := make(map[string]float64)
	count := make(map[string]int)
	for i, s := range spans {
		busy[s.layer()] += float64(self[i])
		count[s.layer()]++
	}
	for _, l := range layers {
		v := 0.0
		if tracedSeconds > 0 {
			v = busy[l] / 1e9 / tracedSeconds
		}
		res.set(l+".busy_cores", v, "cores", count[l])
	}
	// Every workload snapshots a collector; a run too short to trace one
	// still reports the metric, with n=0.
	res.setLatency("monitor.snapshot_ms", "ms", nil)
	for _, st := range summarizeSpans(spans) {
		d := make([]float64, len(st.durations))
		for i, ns := range st.durations {
			d[i] = ns / 1e6
		}
		res.setLatency(st.Name+"_ms", "ms", d)
	}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// specLine selects the spec's metrics from a result: the end-to-end ones
// for an untraced run, the per-layer ones for a traced run.
func specLine(res *result, want []specMetric) (*resultLine, error) {
	line := &resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric, len(want))}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", res.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		line.Metrics[m.Name] = lineMetric{Value: got.Value, Unit: got.Unit}
	}
	return line, nil
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var out, spansPath, specPath string
	fs.StringVar(&o.workload, "workload", "", "workload to run: ingest, fleet, query or observed_app")
	fs.Int64Var(&o.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured interval in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&spansPath, "spans", "", "with -trace 1, write the recorded spans to this file")
	fs.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if !(o.seconds > 0) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	o.warmup, o.setups = warmupSeconds, minSetups
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	res, spans, tracedSecs, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("%s %s %.6g %s n=%d\n", res.Workload, k, m.Value, m.Unit, m.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", res.Workload, e)
	}
	if out != "" {
		if err := writeJSONFile(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if spansPath != "" && o.trace {
		h := spanFileHeader{Workload: res.Workload, Seed: res.Seed, TracedSeconds: tracedSecs,
			TraceOverheadFrac: res.Metrics["bench.trace_overhead_frac"].Value}
		if err := writeSpans(spansPath, h, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	line, err := specLine(res, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// errorf joins a context string to an error, or returns nil.
func errorf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}

// sleepUntil waits until t or until ctx is done, reporting false in the
// latter case.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
