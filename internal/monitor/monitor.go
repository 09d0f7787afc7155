// Package monitor turns the repository's post-mortem analysis pipeline
// into a live observability stack. A Collector is a concurrency-safe
// trace.Sink that instrumented programs (internal/mpi worlds, the
// internal/cfd solver, the internal/apps applications) stream their
// events into while they run; it folds them incrementally into a live
// measurement cube and publishes immutable snapshots that HTTP handlers
// (see NewHandler) expose as Prometheus gauges, raw cube JSON, Lorenz
// curve points and a windowed imbalance timeline.
//
// The design separates the hot path from the analysis path:
//
//   - Every event reaches the fold through a producer ring: one SPSC
//     ring per event source, whose publish path takes no lock and
//     performs zero heap allocations (see ring.go and
//     BenchmarkRecordBatch). A Producer handle is one such source; the
//     network ingest listener (ingest.go) feeds one Producer per
//     connection.
//   - Record and RecordBatch publish into the collector's own 256-event
//     ring (recordRing), registered before any other. A mutex makes every
//     in-process caller that ring's single producer, so recording costs
//     one lock, a copy into the ring and a counter bump (see
//     BenchmarkCollectorRecord). When the ring is full, the recording
//     goroutine folds it itself; only if a Snapshot or Fold holds the fold
//     at that moment does it wait, until that fold has drained the ring —
//     at worst until that Snapshot or Fold returns. Memory without a
//     consumer is therefore bounded by the ring.
//   - Snapshot drains the rings in registration order — the Record ring
//     first — folding each span in place into the running totals (per-cell
//     wall clock sums, Welford event-duration accumulators from
//     internal/stats, per-window processor loads) and publishes an
//     immutable *Snapshot through an atomic pointer. Nothing is copied out
//     of the rings, so steady-state collection allocates nothing.
//   - Latest returns the most recently published snapshot without taking
//     any lock, so readers never block writers and vice versa.
package monitor

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/diagnose"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// Options configures a Collector. The zero value is usable: no preset
// dimension order, no temporal windows.
type Options struct {
	// Window is the width, in virtual seconds, of the temporal windows
	// the collector tracks per-processor load in (the imbalance
	// trajectory served at /timeline.json). 0 disables windowing.
	Window float64
	// Regions and Activities preset the cube dimension orders, so gauge
	// label sets stay stable from the first scrape and match an offline
	// aggregation using the same orders. Names not listed are appended
	// in order of first appearance.
	Regions, Activities []string
	// PhasePenalty is the change-point penalty of the streaming phase
	// detection run over the window trajectory (served at /phases.json);
	// <= 0 selects the automatic default, matching what an offline
	// `imba -phases` finds on the same trace. Phase detection is only
	// active when Window is set.
	PhasePenalty float64
	// WindowCap bounds the temporal state: the fold keeps the most recent
	// WindowCap windows at full resolution and decimates older ones 2:1
	// into a coarse tail of at most WindowCap windows, so a forever-running
	// workload holds O(WindowCap) state instead of growing without bound.
	// 0 or negative means temporal.DefaultWindowCap; the cap cannot be
	// disabled, since the live path is exactly the one that cannot
	// assume the run ends.
	WindowCap int
	// MaxRank bounds the processor rank an event may carry; events above
	// it are dropped and counted as malformed. The fold allocates
	// per-rank state proportional to the largest rank seen, so a wild
	// rank — an instrumentation bug in-process, or a hostile frame on
	// the network ingest path, where the rank is decoded from
	// peer-controlled bytes — must be rejected before it can balloon
	// collector memory. 0 or negative means DefaultMaxRank; the bound
	// cannot be disabled.
	MaxRank int
}

// DefaultMaxRank is the default bound on event ranks (Options.MaxRank):
// generous enough for the million-core story, small enough that the
// per-rank fold state a single event can force stays in the megabytes.
const DefaultMaxRank = 1 << 20

// Collector is a live, concurrency-safe event collector implementing
// trace.Sink. Create one with NewCollector.
type Collector struct {
	window  float64
	boot    uint64
	maxRank int
	events  atomic.Uint64
	dropped atomic.Uint64

	// recMu makes every Record/RecordBatch caller the single producer of
	// rec, the collector's own ring.
	recMu sync.Mutex
	rec   *Producer

	// prodMu guards the SPSC producer registry; registration is rare, so
	// the fold copies the list under the lock and drains outside it.
	prodMu      sync.Mutex
	producers   []*Producer
	prodScratch []*Producer

	// foldMu serializes the consumers of every ring: snapshotters,
	// background folds and a recorder folding its full ring.
	foldMu sync.Mutex
	state  foldState
	// gen counts published snapshot generations; it only advances when a
	// fold actually changed the state, so an unchanged collector keeps
	// re-serving the same immutable snapshot (and its memoized views).
	gen uint64
	// memo carries the diagnosis of unchanged phases from one snapshot
	// generation to the next.
	memo diagnose.Memo

	snap atomic.Pointer[Snapshot]
}

// NewCollector creates a collector with the given options.
func NewCollector(opts Options) *Collector {
	maxRank := opts.MaxRank
	if maxRank <= 0 {
		maxRank = DefaultMaxRank
	}
	c := &Collector{
		window:  opts.Window,
		boot:    BootNonce(),
		maxRank: maxRank,
	}
	c.rec = c.newProducer(recordRing, false)
	c.state.init(opts.Regions, opts.Activities)
	if opts.Window > 0 {
		// The windowing itself lives in internal/temporal — the one
		// implementation of the clipping semantics, shared with the
		// offline and federated pipelines. PerActivity keeps per-window
		// per-activity busy vectors so /phases.json can name each phase's
		// hot activities (TrackActivities stays off: /timeline.json's
		// wire format has no Dominant field); PerRegion adds the region
		// split so /diagnose.json can attribute a rank's divergence to
		// the code region the extra time went to.
		winCap := opts.WindowCap
		if winCap <= 0 {
			winCap = temporal.DefaultWindowCap
		}
		c.state.tw = temporal.NewFold(temporal.Options{
			Window:      opts.Window,
			PerActivity: true,
			PerRegion:   true,
			WindowCap:   winCap,
		})
		c.state.seg = temporal.NewStreamSegmenter(opts.PhasePenalty)
	}
	return c
}

// BootNonce returns a value distinguishing one snapshot-publisher
// incarnation from any other, so a scraper comparing snapshot ETags
// never mistakes a restarted publisher (whose Gen restarted from zero)
// for an unchanged one. Collectors take one per NewCollector; the
// federation layer takes one per Federator, since a federator is itself
// a snapshot publisher that downstream federators may scrape.
// Wall-clock nanoseconds shifted to make room for a process-local
// counter: distinct within a process by the counter, across processes by
// the clock.
func BootNonce() uint64 {
	return uint64(time.Now().UnixNano())<<10 | (bootSeq.Add(1) & 0x3ff)
}

var bootSeq atomic.Uint64

// Record folds one event into the collector; it is RecordBatch of a
// one-event batch. It is safe for concurrent use and sits on the
// instrumented program's critical path, so it only publishes into the
// collector's Record ring; the aggregation happens when a fold drains it.
// Record waits only when that ring is full: it then folds the ring
// itself, or, while a Snapshot or Fold holds the fold, waits until that
// fold has drained the ring (at worst until the Snapshot or Fold
// returns).
// Malformed events (rank outside [0, MaxRank], empty names, end before
// start, start before virtual time zero, non-finite timestamps) are
// dropped and counted instead of corrupting the cube. A live run's
// virtual clock starts at zero, so a negative start can only be an
// instrumentation bug; the shared window fold would handle it (it floors
// into negative-index windows), but the live wire format has no place
// for windows before the run began.
func (c *Collector) Record(e trace.Event) {
	batch := [1]trace.Event{e}
	c.RecordBatch(batch[:])
}

// malformed is the validity test every producer ring applies, so the
// Record ring and the wire path drop exactly the same events. The
// timestamp tests are spelled with negated comparisons so NaN fails
// them (every ordered comparison against NaN is false): the wire
// decoder reconstructs timestamps from arbitrary IEEE-754 bit patterns,
// and a NaN duration folded into a cell would poison its accumulators
// permanently. +Inf is caught by the MaxFloat64 test (an infinite End
// also makes the duration infinite, and an infinite Start forces an
// infinite End). The rank bound likewise guards the fold's per-rank
// allocations against a decoded rank no real machine has.
func (c *Collector) malformed(e trace.Event) bool {
	return e.Rank < 0 || e.Rank > c.maxRank ||
		e.Region == "" || e.Activity == "" ||
		!(e.Start >= 0) || !(e.End >= e.Start) || e.End > math.MaxFloat64
}

// RecordBatch folds a whole batch with batch-granular costs: one lock
// acquisition and one counter bump per batch. Events fold in record
// order, so the result is bit-for-bit identical to calling Record on each
// event in order — same drops, therefore the same fold. The batch slice
// is not retained. A caller that owns its event source outright can skip
// the lock with its own Producer ring.
func (c *Collector) RecordBatch(events []trace.Event) {
	c.recMu.Lock()
	c.rec.RecordBatch(events)
	c.recMu.Unlock()
}

// Events returns the number of events recorded so far (including ones
// not yet folded into a snapshot).
func (c *Collector) Events() uint64 { return c.events.Load() }

// Dropped returns the number of malformed events rejected so far.
func (c *Collector) Dropped() uint64 { return c.dropped.Load() }

// Window returns the configured temporal window width in virtual
// seconds; 0 when windowing is disabled.
func (c *Collector) Window() float64 { return c.window }

// Snapshot drains the producer rings, folds their events into the running
// aggregation and publishes the resulting immutable snapshot, which it
// also returns. Concurrent Snapshot calls serialize. A concurrent Record
// blocks only if it fills the Record ring while Snapshot runs: it then
// waits until Snapshot has drained that ring, at worst until Snapshot
// returns.
func (c *Collector) Snapshot() *Snapshot {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	// Capture the drop counter before draining. The event counter is NOT
	// read from c.events: a Record racing with the drain could already
	// have bumped it without its event being in the drained rings, and
	// a published snapshot must never claim events its cube does not
	// account for. foldState.folded counts exactly the folded events.
	dropped := c.dropped.Load()
	c.foldPending()
	// Nothing changed since the last build: re-serve the previous immutable
	// snapshot, so scrape handlers reuse its memoized analysis instead of
	// recomputing every index for identical data. The folded count — not
	// the drain count of this call — is what the comparison must use: a
	// background Fold between two snapshots advances the state while
	// leaving this call's drain empty.
	if prev := c.snap.Load(); prev != nil && c.state.folded == prev.Events && dropped == prev.Dropped {
		return prev
	}
	c.gen++
	snap := c.state.build(c.state.folded, dropped, c.gen)
	snap.Boot = c.boot
	snap.memo = &c.memo
	c.snap.Store(snap)
	return snap
}

// Latest returns the most recently published snapshot without draining
// the rings or taking any lock; it returns nil before the first
// Snapshot call.
func (c *Collector) Latest() *Snapshot { return c.snap.Load() }

// Fold drains every pending event from the producer rings into the
// running aggregation without building or publishing a snapshot, and
// reports how many events it folded. Background folders (the ingest
// listener runs one) call it between scrapes so producer rings stay
// shallow at high event rates; the next Snapshot then only folds the
// tail. Also note that a fold changes no observable snapshot state: Gen
// advances only when a snapshot is actually built over new content.
func (c *Collector) Fold() int {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	return c.foldPending()
}

// foldPending drains the producer rings into the fold state, returning
// the number of events folded. The caller holds foldMu. The registry is
// copied under its own lock so a connection registering mid-fold neither
// blocks nor is missed for longer than one fold; drain order is
// registration order — the Record ring first — keeping the fold
// deterministic for a fixed set of producers.
func (c *Collector) foldPending() int {
	c.prodMu.Lock()
	prods := append(c.prodScratch[:0], c.producers...)
	c.prodScratch = prods
	c.prodMu.Unlock()
	drained := 0
	pruned := false
	for _, p := range prods {
		drained += p.drain(&c.state)
		if p.closed.Load() && p.head.Load() == p.tail.Load() {
			pruned = true
		}
	}
	if pruned {
		// Unregister closed, fully drained producers so connection churn
		// does not accumulate dead rings.
		c.prodMu.Lock()
		kept := c.producers[:0]
		for _, p := range c.producers {
			if p.closed.Load() && p.head.Load() == p.tail.Load() {
				continue
			}
			kept = append(kept, p)
		}
		for i := len(kept); i < len(c.producers); i++ {
			c.producers[i] = nil
		}
		c.producers = kept
		c.prodMu.Unlock()
	}
	return drained
}

// foldState is the running aggregation the snapshots are built from. It
// is only touched under Collector.foldMu.
type foldState struct {
	regions    []string
	activities []string
	rIdx, aIdx map[string]int
	procs      int
	span       float64
	// folded is the number of events folded so far: exactly the events
	// the running totals (and therefore every published cube) account
	// for, unlike Collector.events which racing recorders may bump
	// before their event is drainable.
	folded uint64
	// totals[i][j] holds the per-rank accumulated wall clock time of
	// cell (i, j); rank slices grow on demand.
	totals [][][]float64
	// durs[i][j] is the streaming event-duration accumulator of the
	// cell.
	durs [][]stats.Accumulator
	// tw is the shared windowing engine accumulating the per-window
	// per-rank busy times (internal/temporal owns the clipping
	// semantics); nil when windowing is disabled.
	tw *temporal.Fold
	// seg maintains the PELT phase optimum incrementally across
	// snapshots: each build syncs it with the fresh trajectory (the
	// still-growing tail window rewinds, the settled prefix's DP state is
	// reused) so live phase detection costs amortized-constant work per
	// window instead of a full segmentation per scrape. nil when
	// windowing is disabled.
	seg *temporal.StreamSegmenter

	// lastRegion/lastActivity memoize the previous event's names and cube
	// indices: event streams repeat names in long runs, so the per-event
	// cost of the fold drops to a string comparison instead of two map
	// lookups. Indices never move once assigned, so the memo cannot go
	// stale. The empty string never matches — malformed events (empty
	// names) are rejected before the fold.
	lastRegion   string
	lastRegionI  int
	lastActivity string
	lastActJ     int
}

func (s *foldState) init(regions, activities []string) {
	s.rIdx = make(map[string]int)
	s.aIdx = make(map[string]int)
	for _, r := range regions {
		s.regionIndex(r)
	}
	for _, a := range activities {
		s.activityIndex(a)
	}
}

func (s *foldState) regionIndex(name string) int {
	if i, ok := s.rIdx[name]; ok {
		return i
	}
	i := len(s.regions)
	s.rIdx[name] = i
	s.regions = append(s.regions, name)
	row := make([][]float64, len(s.activities))
	s.totals = append(s.totals, row)
	s.durs = append(s.durs, make([]stats.Accumulator, len(s.activities)))
	return i
}

func (s *foldState) activityIndex(name string) int {
	if j, ok := s.aIdx[name]; ok {
		return j
	}
	j := len(s.activities)
	s.aIdx[name] = j
	s.activities = append(s.activities, name)
	for i := range s.totals {
		s.totals[i] = append(s.totals[i], nil)
		s.durs[i] = append(s.durs[i], stats.Accumulator{})
	}
	return j
}

// fold accumulates one event into the running totals. Record already
// rejected malformed events, so e has a nonnegative rank and start and a
// nonnegative duration.
func (s *foldState) fold(e trace.Event) {
	if e.Region != s.lastRegion {
		s.lastRegionI = s.regionIndex(e.Region)
		s.lastRegion = e.Region
	}
	if e.Activity != s.lastActivity {
		s.lastActJ = s.activityIndex(e.Activity)
		s.lastActivity = e.Activity
	}
	i, j := s.lastRegionI, s.lastActJ
	s.folded++
	if e.Rank >= s.procs {
		s.procs = e.Rank + 1
	}
	if e.End > s.span {
		s.span = e.End
	}
	for len(s.totals[i][j]) <= e.Rank {
		s.totals[i][j] = append(s.totals[i][j], 0)
	}
	d := e.End - e.Start
	s.totals[i][j][e.Rank] += d
	s.durs[i][j].Add(d)
	if s.tw != nil {
		s.tw.Add(e)
	}
}
