// Package serve is the shared HTTP exposition layer: the endpoint set a
// live collector (imbamon) and a federator (imbafed) both mount over
// their snapshot source. Extracting it from the monitor package makes the
// two paths one implementation — a federator is scrapable exactly like a
// collector, including the binary /delta endpoint, which is what lets
// federators scrape federators and tiers compose.
package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"loadimb/internal/majorize"
	"loadimb/internal/monitor"
	"loadimb/internal/rebalance"
	"loadimb/internal/temporal"
	"loadimb/internal/tracefmt"
)

// A Source yields the freshest snapshot of a live measurement: the
// monitor.Collector is one (it folds its buffered events on demand), and
// the federation scraper (internal/federate) is another (it merges the
// states most recently fetched from many collectors). Every handler in
// this package serves any source, so one exposition path covers both the
// per-process and the cluster-wide view.
type Source interface {
	// Snapshot returns the current snapshot; it must never return nil.
	Snapshot() *monitor.Snapshot
}

// serveCached stamps the snapshot's ETag on the response and, when the
// request's If-None-Match already names it, answers 304 Not Modified and
// reports true — the conditional-GET fast path: a client polling an idle
// endpoint costs a header exchange, not a reserialization of the whole
// document.
func serveCached(w http.ResponseWriter, r *http.Request, snap *monitor.Snapshot) bool {
	tag := snap.ETag()
	if tag == "" {
		return false
	}
	w.Header().Set("ETag", tag)
	if noneMatch(r.Header.Values("If-None-Match"), tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// noneMatch reports whether If-None-Match field values name tag, as RFC
// 9110 section 13.1.2 evaluates them: each field is "*" (any current
// representation) or a comma-separated list of entity tags, compared
// weakly, so W/"x" matches "x". A proxy that weakens the tags of what it
// compresses, or a client listing several, still gets its 304.
func noneMatch(fields []string, tag string) bool {
	for _, f := range fields {
		for f = strings.TrimLeft(f, " \t,"); f != ""; f = strings.TrimLeft(f, " \t,") {
			if f[0] == '*' {
				return true
			}
			f = strings.TrimPrefix(f, "W/")
			if f == "" || f[0] != '"' {
				return false // not an entity tag: the field is malformed
			}
			end := strings.IndexByte(f[1:], '"')
			if end < 0 {
				return false
			}
			if f[:end+2] == tag {
				return true
			}
			f = f[end+2:]
		}
	}
	return false
}

// acceptsGzip reports whether the request negotiates gzip content coding.
// A plain scraper (curl, a browser devtool, the tests' default client)
// gets identity bytes; only a client that explicitly asks pays the
// decompression. Names are case-insensitive, and a quality value that is
// zero in any spelling (q=0, q=0.000, Q=0) or does not parse refuses gzip
// (RFC 9110, section 12.4.2).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			name, value, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(name), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
				return err == nil && q > 0
			}
		}
		return true
	}
	return false
}

// jsonHeaders negotiates the response encoding for a JSON endpoint, sets
// the headers and reports whether the body must be gzip-encoded. The
// Vary header is always set: caches must key on Accept-Encoding.
func jsonHeaders(w http.ResponseWriter, r *http.Request) bool {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		return false
	}
	w.Header().Set("Content-Encoding", "gzip")
	return true
}

// jsonBody negotiates the response encoding for a JSON endpoint and
// returns the writer the document should go to plus a flush func.
func jsonBody(w http.ResponseWriter, r *http.Request) (io.Writer, func()) {
	if !jsonHeaders(w, r) {
		return w, func() {}
	}
	gz := gzip.NewWriter(w)
	return gz, func() { _ = gz.Close() }
}

// encodeJSON writes v to w as the indented JSON every endpoint serves. A
// value JSON cannot carry (a NaN or infinite number) fails the encoding
// before anything is written.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// encodeFailed answers a document that could not be encoded: 500, with
// no ETag and no content coding, since there is no body to name.
func encodeFailed(w http.ResponseWriter, err error) {
	w.Header().Del("ETag")
	http.Error(w, "encoding the document: "+err.Error(), http.StatusInternalServerError)
}

// writeJSON writes v as indented JSON, gzip-encoded when the client asked
// for it, or answers 500 when v cannot be encoded.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, v); err != nil {
		encodeFailed(w, err)
		return
	}
	body, done := jsonBody(w, r)
	defer done()
	_, _ = body.Write(buf.Bytes())
}

// docCache is one JSON endpoint's encoding of the last snapshot it
// served: the identity body, and the gzip body once a client asked for
// it. A snapshot is immutable and a new generation is a new snapshot, so
// the document costs one encoding per generation however many clients
// poll it, instead of one per request. A document that fails to encode
// is not kept.
type docCache struct {
	mu   sync.Mutex
	snap *monitor.Snapshot
	body []byte
	gz   []byte
}

// write serves doc() for snap exactly as writeJSON would, from the cache
// when snap is the snapshot it last encoded.
func (c *docCache) write(w http.ResponseWriter, r *http.Request, snap *monitor.Snapshot, doc func() any) {
	c.writeEncoded(w, r, snap, func(buf *bytes.Buffer) error { return encodeJSON(buf, doc()) })
}

// writeEncoded is write with the document's encoder: encode writes into
// buf exactly what encodeJSON would write for the document, and fails
// when encodeJSON would. It runs under the cache's lock.
func (c *docCache) writeEncoded(w http.ResponseWriter, r *http.Request, snap *monitor.Snapshot, encode func(buf *bytes.Buffer) error) {
	c.mu.Lock()
	if c.snap != snap {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			c.mu.Unlock()
			encodeFailed(w, err)
			return
		}
		c.snap, c.body, c.gz = snap, buf.Bytes(), nil
	}
	body := c.body
	gzipped := jsonHeaders(w, r)
	if gzipped {
		if c.gz == nil {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			_, _ = zw.Write(c.body)
			_ = zw.Close()
			c.gz = buf.Bytes()
		}
		body = c.gz
	}
	c.mu.Unlock()
	_, _ = w.Write(body)
}

// metricsHandler serves the Prometheus text exposition of the source's
// snapshot: every paper index (ID_ij, ID_A/SID_A, ID_C/SID_C, ID_P), the
// Gini coefficient, the cube marginals and the collector counters, behind
// the configured extra families (WithMetricsPrefix) and followed by the
// rebalance and ingest families when those are attached.
func metricsHandler(src Source, cfg *config) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.metricsPrefix != nil {
			cfg.metricsPrefix(w)
		}
		if err := monitor.WriteMetrics(w, snap); err != nil {
			// Headers are already sent; the scraper will see a
			// truncated body and retry.
			return
		}
		if cfg.rebalance != nil {
			writeRebalanceMetrics(w, cfg.rebalance.Snapshot())
		}
		if cfg.ingest != nil {
			_ = cfg.ingest.WriteMetrics(w)
		}
	}
}

// CubeHandler serves the snapshot cube as tracefmt JSON, answering 503
// until the first event has been folded.
func CubeHandler(src Source) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		if snap.Cube == nil {
			http.Error(w, "no events collected yet", http.StatusServiceUnavailable)
			return
		}
		if serveCached(w, r, snap) {
			return
		}
		body, done := jsonBody(w, r)
		defer done()
		_ = tracefmt.WriteCubeJSON(body, snap.Cube)
	}
}

// LorenzHandler serves the Lorenz curve and Gini coefficient of the
// snapshot's per-processor total times.
func LorenzHandler(src Source) http.HandlerFunc {
	var cache docCache
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		totals := snap.ProcTotals()
		if totals == nil {
			http.Error(w, "no events collected yet", http.StatusServiceUnavailable)
			return
		}
		points, err := majorize.Lorenz(totals)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if serveCached(w, r, snap) {
			return
		}
		cache.write(w, r, snap, func() any {
			return lorenzPayload{Procs: len(totals), Points: points, Gini: temporal.GiniOf(totals)}
		})
	}
}

// TimelineHandler serves the windowed imbalance trajectory of the
// snapshot; window is the configured window width echoed in the payload
// (0 when windowing is disabled). A source whose width is only known at
// scrape time — the federation merger inherits it from its endpoints —
// passes 0 and the snapshot's own series width is echoed instead.
func TimelineHandler(src Source, window float64) http.HandlerFunc {
	var cache docCache
	var pieces timelinePieces
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		width := window
		if width == 0 && snap.Series != nil {
			width = snap.Series.Window
		}
		if serveCached(w, r, snap) {
			return
		}
		cache.writeEncoded(w, r, snap, func(buf *bytes.Buffer) error {
			p := timelinePayload{
				Window:  width,
				Windows: snap.Windows,
			}
			if snap.Series != nil && snap.Series.CoarseWindow > 0 {
				p.CoarseWindow = snap.Series.CoarseWindow
				p.RingStart = snap.Series.RingStart
				p.Coarse = snap.Coarse
			}
			return pieces.encode(buf, &p)
		})
	}
}

// WindowsHandler serves the snapshot's raw window series — per-window
// per-processor busy vectors rather than summaries — as JSON for people
// and tools. Summaries cannot be combined across jobs, busy vectors can:
// the federation layer merges the same series, transferred over /delta,
// so cluster-wide per-window indices come out exact. It answers 503 while
// windowing is disabled.
func WindowsHandler(src Source) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		if snap.Series == nil {
			http.Error(w, "windowing disabled", http.StatusServiceUnavailable)
			return
		}
		if serveCached(w, r, snap) {
			return
		}
		writeJSON(w, r, snap.Series)
	}
}

// PhasesHandler serves the live phase segmentation of the snapshot's
// window trajectory: every detected phase with its time bounds, label,
// per-phase dispersion indices and hot activities, plus the phase the
// run is currently in. The phases are the exact PELT optimum of the
// trajectory so far — the same segmentation `imba -phases` finds on the
// saved trace — maintained incrementally by the collector. It answers
// 503 while windowing is disabled and an empty phase list before the
// first non-empty window.
func PhasesHandler(src Source) http.HandlerFunc {
	var cache docCache
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		if snap.Series == nil {
			http.Error(w, "windowing disabled", http.StatusServiceUnavailable)
			return
		}
		if serveCached(w, r, snap) {
			return
		}
		cache.write(w, r, snap, func() any {
			p := phasesPayload{
				Window: snap.Series.Window,
				Phases: snap.Phases,
			}
			if n := len(snap.Phases); n > 0 {
				p.Current = &snap.Phases[n-1]
				p.Changes = n - 1
			}
			return p
		})
	}
}

// DiagnoseHandler serves the automatic performance diagnosis of the
// snapshot: per-phase rank-similarity cohorts and divergence findings
// ("rank 17 diverged from its 63-rank cohort in phase 3 ..."), the
// programmatic root-cause layer over the phase segmentation. The report
// and its encoding are memoized per fold generation, so scraping it is as
// cheap as the other endpoints while the run is quiet. It answers 503
// while windowing is disabled.
func DiagnoseHandler(src Source) http.HandlerFunc {
	var cache docCache
	return func(w http.ResponseWriter, r *http.Request) {
		snap := src.Snapshot()
		if snap.Series == nil {
			http.Error(w, "windowing disabled", http.StatusServiceUnavailable)
			return
		}
		if serveCached(w, r, snap) {
			return
		}
		cache.write(w, r, snap, func() any { return snap.Diagnosis() })
	}
}

// An Option customizes the endpoint set Mux and NewHandler build.
type Option func(*config)

type config struct {
	ingest        *monitor.IngestServer
	window        float64
	health        http.HandlerFunc
	index         http.HandlerFunc
	metricsPrefix func(w io.Writer)
	pprof         bool
	rebalance     RebalanceSource
}

// A RebalanceSource yields the live statistics of an adaptive
// rebalancing controller; *rebalance.Controller is one.
type RebalanceSource interface {
	Snapshot() rebalance.Stats
}

// WithIngest attaches an ingest server's counters to the handler's
// /metrics exposition (the loadimb_ingest_* families).
func WithIngest(s *monitor.IngestServer) Option {
	return func(cfg *config) { cfg.ingest = s }
}

// WithWindow sets the configured window width echoed by /timeline.json;
// 0 (the default) echoes the snapshot's own series width.
func WithWindow(w float64) Option {
	return func(cfg *config) { cfg.window = w }
}

// WithHealth replaces the default always-200 /healthz with a custom
// probe (the federator reports per-endpoint scrape state there).
func WithHealth(h http.HandlerFunc) Option {
	return func(cfg *config) { cfg.health = h }
}

// WithIndex replaces the default "/" page (the embedded dashboard).
func WithIndex(h http.HandlerFunc) Option {
	return func(cfg *config) { cfg.index = h }
}

// WithMetricsPrefix prepends extra Prometheus families to the /metrics
// exposition, ahead of the snapshot's index families (the federator's
// scrape-state gauges use this).
func WithMetricsPrefix(f func(w io.Writer)) Option {
	return func(cfg *config) { cfg.metricsPrefix = f }
}

// WithPprof mounts the Go runtime profile endpoints under /debug/pprof/.
func WithPprof() Option {
	return func(cfg *config) { cfg.pprof = true }
}

// WithRebalance mounts /rebalance.json over the controller's statistics
// and appends the loadimb_rebalance_* families to /metrics, so the
// closed loop (measure, decide, migrate) is observable on the same
// surface as the imbalance it corrects.
func WithRebalance(src RebalanceSource) Option {
	return func(cfg *config) { cfg.rebalance = src }
}

// RebalanceHandler serves the controller's statistics — policy, per-round
// history, migration counts and the achieved ID_P — as JSON.
func RebalanceHandler(src RebalanceSource) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, src.Snapshot())
	}
}

// writeRebalanceMetrics writes the loadimb_rebalance_* Prometheus
// families for the controller's current statistics.
func writeRebalanceMetrics(w io.Writer, s rebalance.Stats) {
	m := monitor.NewMetricsWriter(w)
	policy := monitor.Label("policy", s.Policy)
	converged := 0.0
	if s.Converged {
		converged = 1
	}
	for _, fam := range []struct {
		name, help, typ string
		value           float64
	}{
		{"loadimb_rebalance_rounds_total", "Boundaries at which the controller planned migrations.", "counter", float64(s.Rounds)},
		{"loadimb_rebalance_migrations_total", "Individual work moves shipped by the rebalancer.", "counter", float64(s.Migrations)},
		{"loadimb_rebalance_migrated_seconds_total", "Load shipped by the rebalancer, in virtual seconds.", "counter", s.Migrated},
		{"loadimb_rebalance_achieved_id", "Latest measured Euclidean ID_P at a rebalancing boundary.", "gauge", s.AchievedID},
		{"loadimb_rebalance_target", "Target ID_P the controller drives toward.", "gauge", s.Target},
		{"loadimb_rebalance_converged", "Whether a boundary measurement has reached the target (1) yet.", "gauge", converged},
		{"loadimb_rebalance_rounds_to_target", "Rebalancing rounds needed to first reach the target; -1 until then.", "gauge", float64(s.RoundsToTarget)},
	} {
		m.Family(fam.name, fam.help, fam.typ)
		m.Sample(fam.value, policy)
	}
}

// Mux assembles the exposition endpoint set over an arbitrary source:
//
//	/metrics        Prometheus text exposition of every paper index
//	/cube.json      the measurement cube (tracefmt JSON)
//	/lorenz.json    Lorenz curve of the per-processor total times
//	/timeline.json  windowed imbalance trajectory (temporal analysis)
//	/windows.json   raw per-window busy vectors (the mergeable series)
//	/phases.json    phase detection over the window trajectory
//	/diagnose.json  automatic diagnosis (rank cohorts + divergence findings)
//	/delta          binary LIFP snapshot transfer (what federators scrape)
//	/healthz        liveness probe (always 200 unless WithHealth overrides)
//	/               index page (404-on-subpath; WithIndex overrides)
//
// JSON endpoints answer 304 on a matching If-None-Match and gzip their
// bodies when the client sends Accept-Encoding: gzip; they serve people,
// dashboards and `imba -in`. A federator scrapes only /delta. The same
// mux serves a live collector and a federator, which is what makes
// federation trees compose: every tier exposes the identical surface.
func Mux(src Source, opts ...Option) *http.ServeMux {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	health := cfg.health
	if health == nil {
		health = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok\n"))
		}
	}
	mux.HandleFunc("/healthz", health)
	mux.Handle("/metrics", metricsHandler(src, &cfg))
	if cfg.rebalance != nil {
		mux.Handle("/rebalance.json", RebalanceHandler(cfg.rebalance))
	}
	mux.Handle("/cube.json", CubeHandler(src))
	mux.Handle("/lorenz.json", LorenzHandler(src))
	mux.Handle("/timeline.json", TimelineHandler(src, cfg.window))
	mux.Handle("/windows.json", WindowsHandler(src))
	mux.Handle("/phases.json", PhasesHandler(src))
	mux.Handle("/diagnose.json", DiagnoseHandler(src))
	mux.Handle("/delta", NewDeltaServer(src))
	index := cfg.index
	if index == nil {
		index = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write([]byte(dashboardHTML))
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		index(w, r)
	})
	if cfg.pprof {
		// Explicit pprof wiring: the handler set must work on any mux,
		// not just http.DefaultServeMux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// NewHandler returns the monitoring endpoint set for a live collector:
// Mux over the collector plus the embedded dashboard at "/" and the
// pprof profiles of the monitored process.
func NewHandler(c *monitor.Collector, opts ...Option) http.Handler {
	base := []Option{WithWindow(c.Window()), WithPprof()}
	return Mux(c, append(base, opts...)...)
}

// lorenzPayload is the /lorenz.json document.
type lorenzPayload struct {
	// Procs is the number of processors.
	Procs int `json:"procs"`
	// Points holds the Lorenz curve: Points[k] is the fraction of the
	// total time accounted for by the k least-loaded processors.
	Points []float64 `json:"points"`
	// Gini is the Gini coefficient of the same vector.
	Gini float64 `json:"gini"`
}

// timelinePayload is the /timeline.json document.
type timelinePayload struct {
	// Window is the configured window width in virtual seconds; 0 when
	// windowing is disabled.
	Window float64 `json:"window"`
	// Windows is the per-window imbalance trajectory. For a bounded run
	// that outgrew its window cap this is the retained full-resolution
	// ring; the fields below carry the decimated history. They are
	// omitted while nothing has been decimated, keeping the wire format
	// byte-identical to the pre-retention one for bounded-fit runs.
	Windows []monitor.WindowStat `json:"windows"`
	// CoarseWindow is the decimated tail's window width in virtual
	// seconds; 0 while nothing has been decimated.
	CoarseWindow float64 `json:"coarse_window,omitempty"`
	// RingStart is the base window index where full resolution begins.
	RingStart int `json:"ring_start,omitempty"`
	// Coarse is the pre-ring trajectory at CoarseWindow resolution.
	Coarse []monitor.WindowStat `json:"coarse,omitempty"`
}

// phasesPayload is the /phases.json document.
type phasesPayload struct {
	// Window is the window width in virtual seconds.
	Window float64 `json:"window"`
	// Current is the phase the run is in right now — the last detected
	// phase; null before the first non-empty window.
	Current *temporal.PhaseSummary `json:"current"`
	// Changes is the number of phase boundaries detected so far.
	Changes int `json:"changes"`
	// Phases is the full segmentation of the trajectory so far, in time
	// order — the boundary history.
	Phases []temporal.PhaseSummary `json:"phases"`
}
