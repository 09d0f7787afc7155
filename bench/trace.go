package main

// Span recording for the traced run. Spans are recorded only here, around
// the public calls the harness makes into each layer; nothing inside the
// program under test is instrumented. A span's layer is the part of its
// name before the first dot ("serve.delta" belongs to serve).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
)

// span is one recorded interval. Spans caused by one request or round
// share Trace; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// spanRef identifies an open span as a parent for the spans it causes.
// The zero value means "no parent": a span started under it roots a new
// trace.
type spanRef struct{ trace, id uint64 }

// openSpan is a started span; finishing the zero value is a no-op, which
// is what start returns while recording is off.
type openSpan struct {
	name   string
	ref    spanRef
	parent uint64
	start  int64
}

// tracer keeps spans in memory. Recording is switched on and off while
// the workload runs; while it is off, start and finish cost one atomic
// load each, so the untraced slices do the same work as the traced ones
// minus the recording.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) recording() bool { return t.on.Load() }

// start opens a span under parent.
func (t *tracer) start(name string, parent spanRef) openSpan {
	if !t.on.Load() {
		return openSpan{}
	}
	id := t.ids.Add(1)
	tr := parent.trace
	if tr == 0 {
		tr = id
	}
	return openSpan{name: name, ref: spanRef{tr, id}, parent: parent.id, start: t.now()}
}

// finish records the span. A span started while recording was on is kept
// even if recording stopped since.
func (t *tracer) finish(o openSpan) {
	if o.ref.id == 0 {
		return
	}
	s := span{Name: o.name, Trace: o.ref.trace, ID: o.ref.id, Parent: o.parent, Start: o.start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// withSpan returns a context carrying ref as the parent of spans started
// from it, including spans on the far side of an HTTP request.
func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// spanHeader carries the parent span across an HTTP request.
const spanHeader = "X-Bench-Span"

// tracingTransport propagates the request context's span to the server.
type tracingTransport struct{ base http.RoundTripper }

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref := spanFrom(req.Context()); ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%x-%x", ref.trace, ref.id))
	}
	return tt.base.RoundTrip(req)
}

// newClient returns the harness's HTTP client: at most two connections
// per host, and span propagation for the traced run.
func newClient() *http.Client {
	return &http.Client{Transport: tracingTransport{base: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
	}}}
}

// closeClient releases the client's idle connections.
func closeClient(c *http.Client) {
	c.Transport.(tracingTransport).base.(*http.Transport).CloseIdleConnections()
}

// endpointName names an endpoint after its path: "/diagnose.json" is
// "diagnose". Its handler's spans are "serve.<name>".
func endpointName(path string) string {
	return strings.TrimSuffix(strings.TrimPrefix(path, "/"), ".json")
}

// tracedSource is the serve.Source every served snapshot goes through, in
// the traced and the untraced run alike. It spans the source's Snapshot
// call and, when analyze is set, computes the snapshot's memoized views
// and diagnosis as soon as a new snapshot appears, so that work shows as
// spans of its own instead of hiding inside whichever handler happens to
// trigger the memo first.
type tracedSource struct {
	t       *tracer
	src     serve.Source
	name    string
	analyze bool
	last    atomic.Pointer[monitor.Snapshot]

	// inflight lists the handler spans of the traced requests being
	// served, in start order. Handlers call Snapshot without a context, as
	// the first thing they do, so the source takes the most recently
	// started request as its spans' parent: only two requests starting
	// within microseconds of each other can swap children, and both are
	// this source's handler spans.
	mu       sync.Mutex
	inflight []spanRef
}

func (s *tracedSource) Snapshot() *monitor.Snapshot {
	parent := s.current()
	o := s.t.start(s.name, parent)
	snap := s.src.Snapshot()
	s.t.finish(o)
	if s.analyze && s.last.Swap(snap) != snap {
		o = s.t.start("core.views", parent)
		_, _ = snap.Views() // a failure surfaces as the handler's error status
		s.t.finish(o)
		o = s.t.start("diagnose.report", parent)
		snap.Diagnosis()
		s.t.finish(o)
	}
	return snap
}

// current returns the parent for the source's spans.
func (s *tracedSource) current() spanRef {
	if !s.t.recording() {
		return spanRef{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.inflight); n > 0 {
		return s.inflight[n-1]
	}
	return spanRef{}
}

// handler wraps h, which serves this source, in a per-request span
// ("serve.<endpoint>") whose parent is the client's span, carried in the
// request header.
func (s *tracedSource) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		var parent spanRef
		if v := r.Header.Get(spanHeader); v != "" {
			a, b, _ := strings.Cut(v, "-")
			parent.trace, _ = strconv.ParseUint(a, 16, 64)
			parent.id, _ = strconv.ParseUint(b, 16, 64)
		}
		o := s.t.start("serve."+endpointName(r.URL.Path), parent)
		s.mu.Lock()
		s.inflight = append(s.inflight, o.ref)
		s.mu.Unlock()
		h.ServeHTTP(w, r)
		s.mu.Lock()
		for i, ref := range s.inflight {
			if ref == o.ref {
				s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		s.t.finish(o)
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children, where overlapping children count
// once and children are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, end int64
		for _, v := range iv {
			if v[0] > end {
				end = v[0]
			}
			if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
	P50, P99    time.Duration
	durations   []float64
}

// summarizeSpans groups spans by name, sorted by descending self time.
func summarizeSpans(spans []span) []spanStat {
	self := selfTimes(spans)
	byName := make(map[string]*spanStat)
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(self[i])
		st.durations = append(st.durations, float64(d))
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		d := sortedCopy(st.durations)
		st.P50 = time.Duration(percentile(d, 0.50))
		st.P99 = time.Duration(percentile(d, 0.99))
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanFileHeader is the first line of a spans file.
type spanFileHeader struct {
	Workload          string  `json:"workload"`
	Seed              int64   `json:"seed"`
	TracedSeconds     float64 `json:"traced_seconds"`
	TraceOverheadFrac float64 `json:"trace_overhead_frac"`
}

// writeSpans writes the header and one JSON span per line.
func writeSpans(path string, h spanFileHeader, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a file written by writeSpans.
func readSpans(path string) (spanFileHeader, []span, error) {
	var h spanFileHeader
	f, err := os.Open(path)
	if err != nil {
		return h, nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	var spans []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return h, nil, fmt.Errorf("%s: span %d: %w", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	return h, spans, nil
}

// summarizeMain implements `summarize FILE...`: per span name the count,
// total and self time, p50 and p99, and per file the tracing overhead.
func summarizeMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: summarize SPANS.jsonl...")
		return 2
	}
	for _, path := range args {
		h, spans, err := readSpans(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "summarize:", err)
			return 1
		}
		fmt.Printf("== %s: workload %s seed %d, %d spans over %.1f s traced, tracing overhead %+.1f%%\n",
			path, h.Workload, h.Seed, len(spans), h.TracedSeconds, 100*h.TraceOverheadFrac)
		fmt.Printf("%-26s %8s %11s %11s %10s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms")
		for _, st := range summarizeSpans(spans) {
			fmt.Printf("%-26s %8d %11.1f %11.1f %10.3f %10.3f\n", st.Name, st.Count,
				ms(st.Total), ms(st.Self), ms(st.P50), ms(st.P99))
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
