// Package federate merges the live measurement cubes of many imbamon
// (internal/monitor) endpoints into one federated cube, so a cluster of
// instrumented jobs is analyzed as a single program — the way the paper
// treats its P=16 run, scaled out to many cooperating processes.
//
// A Federator periodically scrapes each endpoint's /delta, the binary
// LIFP snapshot transfer (internal/tracefmt), with a per-request timeout.
// It names the generation it already holds, so an unchanged endpoint
// answers 304 and a changed one ships only the cells and windows that
// moved. Failures are retried with exponential backoff plus jitter; after
// MaxFailures consecutive failures an endpoint is marked stale and its
// last cube is dropped from the aggregate instead of poisoning it — the
// remaining endpoints keep serving a correct cluster-wide view (graceful
// degradation), and the endpoint rejoins automatically on its next
// successful scrape.
//
// The Federator is a serve.Source, so the shared exposition layer
// (internal/serve) serves the federated snapshot exactly like a
// collector's; Handler mounts it together with a /healthz that lists
// per-endpoint scrape state.
package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// An Endpoint is one imbamon instance to scrape.
type Endpoint struct {
	// Name labels the endpoint; it namespaces the endpoint's code
	// regions in the federated cube ("name/region") and identifies it in
	// /healthz and the federation metrics. Names must be unique.
	Name string
	// URL is the base URL of the endpoint's serve.Mux, e.g.
	// "http://node7:9190"; the federator scrapes URL + "/delta".
	URL string
	// Raw suppresses namespacing for this endpoint: its region names and
	// per-region window keys enter the federated view verbatim instead of
	// prefixed "name/". This is how federation tiers compose — a federator
	// scraping another federator sets Raw, because the lower tier already
	// namespaced every region by its leaf job, and re-prefixing would make
	// the tree's root view depend on its shape. Rank offsets still apply.
	Raw bool
}

// Options configures a Federator. Zero durations and counts fall back to
// the documented defaults.
type Options struct {
	// Endpoints is the scrape target set; at least one is required.
	Endpoints []Endpoint
	// Interval is the poll period after a successful scrape. Default 2s.
	// It also sets the retry backoff: Interval/4 after the first failure,
	// doubling per consecutive failure up to 4*Interval, with jitter
	// drawn from [delay/2, delay) so a restarted cluster's endpoints do
	// not retry in lockstep.
	Interval time.Duration
	// Timeout bounds each scrape request. Default 5s.
	Timeout time.Duration
	// MaxFailures is the number of consecutive scrape failures after
	// which an endpoint is considered stale and excluded from the
	// aggregate. Default 3.
	MaxFailures int
	// WindowCap bounds the merged window series the same way the
	// collectors bound theirs: at most WindowCap ring windows at full
	// resolution plus a decimated coarse tail of at most WindowCap
	// windows. Endpoints usually arrive pre-bounded (their own caps), but
	// a merged ring can still outgrow any one endpoint's — endpoints
	// decimate at different times. 0 or negative means
	// temporal.DefaultWindowCap; the cap cannot be disabled.
	WindowCap int
	// MaxBodyBytes bounds every scrape response body, so a hostile or
	// broken endpoint cannot OOM the federator. A response whose
	// Content-Length or actual stream exceeds the bound fails the scrape.
	// 0 or negative means DefaultMaxBodyBytes; the bound cannot be
	// disabled.
	MaxBodyBytes int64
	// Client overrides the HTTP client (tests inject httptest clients);
	// the per-request Timeout is applied through the request context
	// either way.
	Client *http.Client
	// Logf, when set, receives scrape state transitions (endpoint went
	// stale, endpoint recovered).
	Logf func(format string, args ...any)
}

// endpointState is the mutable scrape state of one endpoint, guarded by
// Federator.mu.
type endpointState struct {
	Endpoint
	// state is the endpoint snapshot last decoded from /delta — its
	// (Boot, Gen) identity, cube and window series — or nil before the
	// first success. The next scrape names its Boot/Gen in ?since=, so an
	// unchanged endpoint answers 304 and the scrape costs a header
	// exchange instead of a document transfer and re-merge. Decoded
	// states are immutable: Snapshot shares them outside the lock.
	state       *tracefmt.DeltaState
	lastSuccess time.Time
	lastAttempt time.Time
	lastLatency time.Duration // duration of the most recent scrape attempt
	lastError   string
	consecutive int    // consecutive failures since the last success
	scrapes     uint64 // successful scrapes
	failures    uint64 // failed scrapes
	bytes       uint64 // response body bytes fetched (on the wire)
}

// cube is the endpoint's last fetched cube, nil before any.
func (s *endpointState) cube() *trace.Cube {
	if s.state == nil {
		return nil
	}
	return s.state.Cube
}

// windows is the endpoint's last fetched window series; nil when the
// endpoint has windowing disabled. Cube availability drives endpoint
// health, window availability only the timeline view.
func (s *endpointState) windows() *temporal.Series {
	if s.state == nil {
		return nil
	}
	return s.state.Series
}

// Federator scrapes a set of monitor endpoints and serves their merged
// cube. Create one with New; it is safe for concurrent use.
type Federator struct {
	interval    time.Duration
	timeout     time.Duration
	maxFailures int
	windowCap   int
	client      *http.Client
	logf        func(string, ...any)
	maxBody     int64
	// boot is this federator incarnation's nonce: a federator is itself a
	// snapshot publisher (another federator may scrape it), so its
	// snapshots carry a Boot like a collector's.
	boot uint64

	mu     sync.Mutex
	states []*endpointState
	// gen counts changes to the live-cube set: it advances on every
	// successful scrape and on every staleness transition, i.e. whenever a
	// merge could produce a different federated cube. snap/snapGen cache
	// the last merged snapshot so repeated scrapes between polls are O(1).
	gen     uint64
	snap    *monitor.Snapshot
	snapGen uint64
}

// New validates the options and builds a Federator. Endpoints without a
// name are named after their URL host; names must end up unique, since
// they namespace the federated cube's regions.
func New(opts Options) (*Federator, error) {
	if len(opts.Endpoints) == 0 {
		return nil, errors.New("federate: no endpoints to scrape")
	}
	f := &Federator{
		interval:    opts.Interval,
		timeout:     opts.Timeout,
		maxFailures: opts.MaxFailures,
		windowCap:   opts.WindowCap,
		client:      opts.Client,
		logf:        opts.Logf,
		maxBody:     opts.MaxBodyBytes,
		boot:        monitor.BootNonce(),
	}
	if f.maxBody <= 0 {
		f.maxBody = DefaultMaxBodyBytes
	}
	if f.windowCap <= 0 {
		f.windowCap = temporal.DefaultWindowCap
	}
	if f.interval <= 0 {
		f.interval = 2 * time.Second
	}
	if f.timeout <= 0 {
		f.timeout = 5 * time.Second
	}
	if f.maxFailures <= 0 {
		f.maxFailures = 3
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	seen := make(map[string]bool, len(opts.Endpoints))
	for i, ep := range opts.Endpoints {
		if ep.URL == "" {
			return nil, fmt.Errorf("federate: endpoint %d has no URL", i)
		}
		if ep.Name == "" {
			u, err := url.Parse(ep.URL)
			if err != nil || u.Host == "" {
				return nil, fmt.Errorf("federate: endpoint %d: cannot derive a name from URL %q", i, ep.URL)
			}
			ep.Name = u.Host
		}
		if seen[ep.Name] {
			return nil, fmt.Errorf("federate: duplicate endpoint name %q", ep.Name)
		}
		seen[ep.Name] = true
		f.states = append(f.states, &endpointState{Endpoint: ep})
	}
	return f, nil
}

// DefaultMaxBodyBytes is the default per-response body bound: far above
// any real snapshot document, far below what it takes to hurt the
// federator.
const DefaultMaxBodyBytes = 64 << 20

// deltaURL is the endpoint's binary snapshot-transfer endpoint.
func (s *endpointState) deltaURL() string {
	return strings.TrimSuffix(s.URL, "/") + "/delta"
}

// stale reports whether the endpoint has failed too many times in a row;
// callers hold Federator.mu.
func (s *endpointState) stale(maxFailures int) bool {
	return s.consecutive >= maxFailures
}

// scrapeEndpoint fetches one endpoint's state over /delta and records the
// outcome. The scraper names the generation it holds and receives only
// the cells and windows that changed since, or a 304 when nothing did.
func (f *Federator) scrapeEndpoint(ctx context.Context, s *endpointState) error {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	attempt := time.Now()
	f.mu.Lock()
	base := s.state
	f.mu.Unlock()

	state, fetched, err := f.fetchDelta(ctx, s.deltaURL(), base)
	latency := time.Since(attempt)

	f.mu.Lock()
	defer f.mu.Unlock()
	s.lastAttempt = attempt
	s.lastLatency = latency
	s.bytes += uint64(fetched)
	if err != nil {
		wasStale := s.stale(f.maxFailures)
		s.failures++
		s.consecutive++
		s.lastError = err.Error()
		if !wasStale && s.stale(f.maxFailures) {
			f.logf("federate: endpoint %q stale after %d consecutive failures: %v",
				s.Name, s.consecutive, err)
			// The endpoint's cube just left the aggregate.
			f.gen++
		}
		return err
	}
	wasStale := s.stale(f.maxFailures)
	if wasStale {
		f.logf("federate: endpoint %q recovered after %d consecutive failures",
			s.Name, s.consecutive)
	}
	s.lastSuccess = time.Now()
	s.lastError = ""
	s.consecutive = 0
	s.scrapes++
	if state == base {
		// 304: the cached state is still this endpoint's current snapshot,
		// so the merged view built from it stays valid and the merge
		// generation must not advance — unless the endpoint had gone
		// stale, in which case its (unchanged) cube just re-entered the
		// aggregate.
		if wasStale {
			f.gen++
		}
		return nil
	}
	// A collector restart resets its generation, so a generation that
	// goes backwards (or a boot nonce that changed) is a new incarnation,
	// not new data from the old one. The fetched state replaces the
	// cached one below either way; the log makes the restart visible, and
	// the generation bump guarantees the cached merged view is
	// invalidated rather than re-served.
	if base != nil && (state.Boot != base.Boot || state.Gen < base.Gen) {
		f.logf("federate: endpoint %q restarted (snapshot generation %d after %d); invalidating its cached view",
			s.Name, state.Gen, base.Gen)
	}
	s.state = state
	// A fresh cube entered the aggregate (or replaced its predecessor).
	f.gen++
	return nil
}

// errBodyTooLarge marks a response body that exceeded MaxBodyBytes.
var errBodyTooLarge = errors.New("federate: response body exceeds MaxBodyBytes")

// boundedBody counts the bytes read from a response body and errors
// (rather than silently truncating, as io.LimitReader would) once more
// than max bytes come through.
type boundedBody struct {
	r      io.Reader
	n, max int64
}

func (b *boundedBody) Read(p []byte) (int, error) {
	if b.n > b.max {
		return 0, errBodyTooLarge
	}
	n, err := b.r.Read(p)
	b.n += int64(n)
	if b.n > b.max {
		return n, errBodyTooLarge
	}
	return n, err
}

// fetchDelta asks the endpoint's /delta for everything since base, the
// state the caller holds (nil before the first success). It returns base
// itself on 304 (nothing changed), the decoded state on 200, and the
// body bytes as counted on the wire; any other answer is an error. If
// the server answers with a delta the client cannot apply (a race around
// eviction), one full refetch is attempted before giving up.
func (f *Federator) fetchDelta(ctx context.Context, url string, base *tracefmt.DeltaState) (*tracefmt.DeltaState, int64, error) {
	get := func(since string) (*tracefmt.DeltaState, int64, error) {
		target := url
		if since != "" {
			target += "?since=" + since
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return nil, 0, err
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNotModified:
			return base, 0, nil
		case http.StatusOK:
		default:
			// Drain a little so the connection can be reused, then report.
			_, _ = io.CopyN(io.Discard, resp.Body, 512)
			return nil, 0, fmt.Errorf("GET %s: status %d", target, resp.StatusCode)
		}
		if resp.ContentLength > f.maxBody {
			return nil, 0, fmt.Errorf("GET %s: %w (Content-Length %d > %d)",
				target, errBodyTooLarge, resp.ContentLength, f.maxBody)
		}
		body := &boundedBody{r: resp.Body, max: f.maxBody}
		doc, err := io.ReadAll(body)
		if err != nil {
			return nil, body.n, fmt.Errorf("GET %s: %w", target, err)
		}
		st, err := tracefmt.DecodeSnapshot(doc, base)
		if err != nil {
			return nil, body.n, fmt.Errorf("GET %s: %w", target, err)
		}
		return st, body.n, nil
	}
	since := ""
	if base != nil && base.Boot != 0 {
		since = tracefmt.SnapshotTag(base.Boot, base.Gen)
	}
	state, bytes, err := get(since)
	if errors.Is(err, tracefmt.ErrDeltaBase) && since != "" {
		// The server sent a delta against a base we no longer hold (or
		// vice versa); one unconditional fetch gets a full document.
		var n int64
		state, n, err = get("")
		bytes += n
	}
	return state, bytes, err
}

// backoff returns the jittered retry delay after n consecutive failures
// (n >= 1): Interval/4 doubled per failure, capped at 4*Interval, then
// drawn from [delay/2, delay) so synchronized failers spread out.
func (f *Federator) backoff(n int) time.Duration {
	d, limit := f.interval/4, 4*f.interval
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// ScrapeAll scrapes every endpoint once, concurrently, and returns after
// all scrapes finish. The daemon runs one synchronous round before
// serving so the first request already sees data; tests use it to drive
// the federator deterministically.
func (f *Federator) ScrapeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range f.states {
		wg.Add(1)
		go func(s *endpointState) {
			defer wg.Done()
			_ = f.scrapeEndpoint(ctx, s)
		}(s)
	}
	wg.Wait()
}

// Run polls every endpoint until ctx is canceled: each endpoint is
// scraped on its own schedule — Interval after a success, exponential
// backoff with jitter after failures — so one slow endpoint never delays
// the others.
func (f *Federator) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range f.states {
		wg.Add(1)
		go func(s *endpointState) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				delay := f.interval
				if err := f.scrapeEndpoint(ctx, s); err != nil {
					f.mu.Lock()
					n := s.consecutive
					f.mu.Unlock()
					delay = f.backoff(n)
				}
				timer.Reset(delay)
			}
		}(s)
	}
	wg.Wait()
}

// Snapshot merges the most recent cubes of all live (non-stale)
// endpoints into a federated monitor snapshot: ranks offset per job,
// regions namespaced by endpoint name, program time the longest job
// timeline (see trace.Federate). Endpoints that never delivered a cube
// or have gone stale are excluded, so a dead job degrades the view
// instead of corrupting it. The snapshot's Cube is nil while no live
// endpoint has data, matching an empty Collector.
func (f *Federator) Snapshot() *monitor.Snapshot {
	f.mu.Lock()
	// No scrape result changed since the last merge: re-serve the cached
	// immutable snapshot, so its precomputed marginals and memoized views
	// are reused instead of re-federating per request.
	if f.snap != nil && f.snapGen == f.gen {
		snap := f.snap
		f.mu.Unlock()
		return snap
	}
	gen := f.gen
	var jobs []trace.JobCube
	var winJobs []temporal.JobWindows
	var rankLabels []string
	haveWindows := false
	for _, s := range f.states {
		if s.cube() != nil && !s.stale(f.maxFailures) {
			// A Raw endpoint (a lower federation tier) already namespaced
			// its regions; an empty label makes trace.Federate and
			// temporal.Merge take its names verbatim, so a tree's root
			// view is independent of the tree's shape.
			label := s.Name
			if s.Raw {
				label = ""
			}
			// Cubes and series are immutable once fetched; sharing the
			// pointers outside the lock is safe.
			jobs = append(jobs, trace.JobCube{Label: label, Cube: s.cube()})
			// The job's rank slots in the merged series are its cube's
			// processors — the same offsets trace.Federate applies, so
			// window ranks and federated cube ranks coincide. An endpoint
			// without windows still occupies its slots. The Label
			// namespaces the job's per-region keys in the merged series
			// the way trace.Federate namespaces its cube regions.
			winJobs = append(winJobs, temporal.JobWindows{
				Procs:  s.cube().NumProcs(),
				Series: s.windows(),
				Label:  label,
			})
			// Diagnosis findings name ranks in the merged rank space;
			// job-local labels ("name/3") keep them attributable.
			for r := 0; r < s.cube().NumProcs(); r++ {
				rankLabels = append(rankLabels, fmt.Sprintf("%s/%d", s.Name, r))
			}
			if s.windows() != nil {
				haveWindows = true
			}
		}
	}
	f.mu.Unlock()

	snap := &monitor.Snapshot{Gen: gen, Boot: f.boot}
	if len(jobs) > 0 {
		cube, err := trace.Federate(jobs)
		if err != nil {
			// Shapes were validated endpoint-side and names deduplicated at
			// New; federation of well-formed cubes cannot fail. Serve an
			// empty snapshot rather than a torn one if it somehow does.
			f.logf("federate: merging %d cubes: %v", len(jobs), err)
			cube = nil
		}
		if cube != nil {
			// Marginals are computed once per merge; every handler on this
			// snapshot then reads them O(1).
			cube.Precompute()
			snap.Cube = cube
			snap.Span = cube.ProgramTime()
		}
		if haveWindows {
			ser, err := temporal.Merge(winJobs)
			if err != nil {
				// Mixed window widths or an endpoint reporting busy time
				// beyond its declared processors: the timeline view is
				// undefined, the cube view stays correct. Degrade just the
				// timeline.
				f.logf("federate: merging window series: %v", err)
			} else {
				// The endpoints bound their own series, but the merged ring
				// can still outgrow any one endpoint's cap (endpoints
				// decimate at different times), and an unbounded endpoint
				// must not make the federator unbounded.
				ser = temporal.BoundSeries(ser, f.windowCap)
				snap.Series = ser
				snap.Windows = ser.Stats()
				snap.Coarse = ser.CoarseStats()
				snap.RankLabels = rankLabels
				// Federated phase detection runs the offline segmentation on
				// the merged trajectory: Snapshot() may run concurrently, so
				// the stateless Segment beats sharing an incremental
				// segmenter here, and the merged series is rebuilt per poll
				// anyway. The automatic penalty matches what each endpoint's
				// own /phases.json uses.
				snap.Phases = temporal.SummarizePhases(ser, temporal.Segment(snap.Windows, 0))
			}
		}
	}

	f.mu.Lock()
	// Only cache if no scrape landed while merging; a racing scrape's
	// next Snapshot call rebuilds from the newer state either way.
	if f.gen == gen {
		f.snap = snap
		f.snapGen = gen
	}
	f.mu.Unlock()
	return snap
}

// EndpointHealth is one endpoint's scrape state as listed by /healthz.
type EndpointHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Stale means MaxFailures or more consecutive failures: the
	// endpoint's cube is excluded from the federated aggregate until a
	// scrape succeeds again.
	Stale bool `json:"stale"`
	// HasCube reports whether any scrape ever delivered a cube.
	HasCube bool `json:"has_cube"`
	// HasWindows reports whether the last successful scrape also
	// delivered a window series (the endpoint has windowing enabled).
	HasWindows          bool   `json:"has_windows"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Scrapes             uint64 `json:"scrapes"`
	Failures            uint64 `json:"failures"`
	// LastSuccess and LastAttempt are the RFC 3339 times of the last
	// successful and the last attempted scrape, empty before any.
	// Comparing them shows how long an endpoint has been failing.
	LastSuccess string `json:"last_success,omitempty"`
	LastAttempt string `json:"last_attempt,omitempty"`
	// ScrapeMillis is the duration of the most recent scrape attempt in
	// milliseconds.
	ScrapeMillis float64 `json:"scrape_ms"`
	// Bytes is the total response body bytes fetched from the endpoint,
	// counted on the wire. Delta scraping shows up here: a
	// mostly-unchanged endpoint costs a 304 or a few cells per scrape,
	// not its whole snapshot.
	Bytes uint64 `json:"bytes"`
	// LastError is the most recent scrape error, empty after a success.
	LastError string `json:"last_error,omitempty"`
}

// Health returns the per-endpoint scrape states in configuration order.
func (f *Federator) Health() []EndpointHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]EndpointHealth, len(f.states))
	for i, s := range f.states {
		h := EndpointHealth{
			Name:                s.Name,
			URL:                 s.URL,
			Stale:               s.stale(f.maxFailures),
			HasCube:             s.cube() != nil,
			HasWindows:          s.windows() != nil,
			ConsecutiveFailures: s.consecutive,
			Scrapes:             s.scrapes,
			Failures:            s.failures,
			ScrapeMillis:        float64(s.lastLatency) / float64(time.Millisecond),
			Bytes:               s.bytes,
			LastError:           s.lastError,
		}
		if !s.lastSuccess.IsZero() {
			h.LastSuccess = s.lastSuccess.Format(time.RFC3339Nano)
		}
		if !s.lastAttempt.IsZero() {
			h.LastAttempt = s.lastAttempt.Format(time.RFC3339Nano)
		}
		out[i] = h
	}
	return out
}
