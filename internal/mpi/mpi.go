// Package mpi is a small message-passing library in the style of MPI,
// executing on the virtual-time engine of internal/sim instead of a real
// machine. It provides the operations the paper's CFD study measures —
// point-to-point communication (Send/Recv/Sendrecv), collective
// communication (Reduce, Allreduce, Alltoall, Bcast), synchronization
// (Barrier) and computation (Compute) — under a configurable
// latency/bandwidth cost model, and instruments every operation into a
// trace of (region, activity, rank, interval) events that aggregates into
// the measurement cube consumed by the analysis.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"loadimb/internal/sim"
	"loadimb/internal/trace"
)

// Activity names recorded by the instrumentation, matching the paper's
// taxonomy.
const (
	ActComputation     = "computation"
	ActPointToPoint    = "point-to-point"
	ActCollective      = "collective"
	ActSynchronization = "synchronization"
)

// Activities lists the four instrumented activities in table order.
func Activities() []string {
	return []string{ActComputation, ActPointToPoint, ActCollective, ActSynchronization}
}

// Common errors.
var (
	// ErrNoRegion is returned when a timed operation runs outside any
	// EnterRegion scope.
	ErrNoRegion = errors.New("mpi: operation outside a code region")
	// ErrBadArgument is returned for invalid operation arguments.
	ErrBadArgument = errors.New("mpi: bad argument")
	// ErrNoCounters is returned by BytesCube when the run recorded no
	// byte counters (no communication inside any region).
	ErrNoCounters = errors.New("mpi: no byte counters recorded")
)

// CostModel parameterizes the virtual machine's communication costs. The
// defaults (DefaultCostModel) roughly follow the published MPI
// point-to-point characteristics of the IBM SP2 era: ~40 us latency and
// ~35 MB/s sustained bandwidth, with log2(P) latency terms for the
// tree-based collectives.
type CostModel struct {
	// Latency is the end-to-end latency of one message, in seconds.
	Latency float64
	// Bandwidth is the sustained point-to-point bandwidth, in bytes/s.
	Bandwidth float64
	// SendOverhead is the CPU time the sender spends per message.
	SendOverhead float64
	// CollectiveLatency is the per-stage latency of tree collectives.
	CollectiveLatency float64
}

// DefaultCostModel returns an SP2-era cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		Latency:           40e-6,
		Bandwidth:         35e6,
		SendOverhead:      10e-6,
		CollectiveLatency: 40e-6,
	}
}

func (c CostModel) validate() error {
	// The explicit finiteness checks matter: `x < 0` is false for NaN, so
	// without them a NaN latency would slip through and poison every
	// virtual clock in the run.
	if !finite(c.Latency) || !finite(c.Bandwidth) || !finite(c.SendOverhead) || !finite(c.CollectiveLatency) {
		return fmt.Errorf("%w: non-finite cost model field in %+v", ErrBadArgument, c)
	}
	if c.Latency < 0 || c.Bandwidth <= 0 || c.SendOverhead < 0 || c.CollectiveLatency < 0 {
		return fmt.Errorf("%w: cost model %+v", ErrBadArgument, c)
	}
	return nil
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// transfer returns the wire time of a message of the given size.
func (c CostModel) transfer(bytes int) float64 {
	return float64(bytes) / c.Bandwidth
}

// stages returns the number of stages of a tree collective over p ranks.
func stages(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// World is one simulated program run: an engine, a cost model and the
// per-rank recorders.
type World struct {
	engine *sim.Engine
	cost   CostModel
	// events[rank] and counts[rank] are appended only by that rank's
	// goroutine during Run, so no locking is needed until the merge.
	events [][]trace.Event
	counts [][]countEntry
	// sink, when set, additionally receives every event as it is
	// recorded, concurrently from the rank goroutines.
	sink trace.Sink
}

// NewWorld creates a world of procs ranks under the cost model.
func NewWorld(procs int, cost CostModel) (*World, error) {
	if err := cost.validate(); err != nil {
		return nil, err
	}
	engine, err := sim.NewEngine(procs)
	if err != nil {
		return nil, err
	}
	return &World{
		engine: engine,
		cost:   cost,
		events: make([][]trace.Event, procs),
		counts: make([][]countEntry, procs),
	}, nil
}

// Procs returns the number of ranks.
func (w *World) Procs() int { return w.engine.Procs() }

// SetSink attaches a live event sink: every instrumented operation is
// forwarded to it at the moment it is recorded, in addition to the
// per-rank logs. The sink must be safe for concurrent use (each rank
// records from its own goroutine) and must be set before Run.
func (w *World) SetSink(s trace.Sink) { w.sink = s }

// Run executes program once per rank concurrently; each invocation
// receives a Comm bound to its rank with the clock at zero. After a
// successful run the recorded events are available via Log.
func (w *World) Run(program func(c *Comm) error) error {
	var mu sync.Mutex
	return w.engine.Run(func(rank int) error {
		c := &Comm{world: w, rank: rank}
		if err := program(c); err != nil {
			return err
		}
		if c.region != "" {
			return fmt.Errorf("mpi: rank %d finished inside region %q", rank, c.region)
		}
		mu.Lock()
		w.events[rank] = c.events
		w.counts[rank] = c.counts
		mu.Unlock()
		return nil
	})
}

// Log merges the per-rank event streams of the last successful Run into a
// single trace log ordered by start time, then rank, then region; events
// equal in all three keep the order their rank recorded them in. A
// malformed event fails the merge with the first error in rank order.
func (w *World) Log() (*trace.Log, error) {
	streams := make([][]trace.Event, len(w.events))
	total := 0
	for r, evs := range w.events {
		for _, e := range evs {
			if err := e.Validate(); err != nil {
				return nil, err
			}
		}
		// A rank's clock never runs backwards, but a zero-length event
		// can close one region at the instant the next region starts,
		// so equal starts may still need their regions ordered.
		if !slices.IsSortedFunc(evs, cmpStartRegion) {
			evs = slices.Clone(evs)
			slices.SortStableFunc(evs, cmpStartRegion)
		}
		streams[r] = evs
		total += len(evs)
	}
	log := trace.NewLog(total)
	t := newTournament(streams)
	for range total {
		r := t[0].rank
		if err := log.Append(streams[r][0]); err != nil {
			return nil, err
		}
		streams[r] = streams[r][1:]
		t.replay(head{headStart(streams[r]), r})
	}
	return log, nil
}

// cmpStartRegion orders one rank's events by start time, then region.
func cmpStartRegion(a, b trace.Event) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Region, b.Region)
}

// headStart is the start of a stream's first event, or +Inf, which no
// valid event's start reaches, for an empty stream.
func headStart(evs []trace.Event) float64 {
	if len(evs) == 0 {
		return math.Inf(1)
	}
	return evs[0].Start
}

// head is a rank's merge key: the start of its next unmerged event.
type head struct {
	start float64
	rank  int
}

// before orders heads by start, then rank.
func (h head) before(o head) bool {
	return h.start < o.start || h.start == o.start && h.rank < o.rank
}

// tournament is a loser tree over the ranks' heads: t[0] is the winner,
// the smallest head, and t[i] for i > 0 the head that lost the match at
// internal node i. Rank r's leaf is node len(t)+r, and node i's parent
// is i/2.
type tournament []head

func newTournament(streams [][]trace.Event) tournament {
	n := len(streams)
	t := make(tournament, n)
	win := make([]head, 2*n)
	for r, evs := range streams {
		win[n+r] = head{headStart(evs), r}
	}
	for i := n - 1; i > 0; i-- {
		a, b := win[2*i], win[2*i+1]
		if b.before(a) {
			a, b = b, a
		}
		win[i], t[i] = a, b
	}
	t[0] = win[1]
	return t
}

// replay plays the winning rank's new head h from its leaf to the root;
// the losers on that path are the other subtrees' winners.
func (t tournament) replay(h head) {
	for i := (len(t) + h.rank) / 2; i > 0; i /= 2 {
		if t[i].before(h) {
			t[i], h = h, t[i]
		}
	}
	t[0] = h
}

// Cube aggregates the recorded events into a measurement cube, with
// regions and activities ordered as given (pass nil for order of first
// appearance).
func (w *World) Cube(regionOrder []string) (*trace.Cube, error) {
	log, err := w.Log()
	if err != nil {
		return nil, err
	}
	return log.Aggregate(regionOrder, Activities())
}

// Comm is one rank's communicator: its identity, virtual clock, current
// code region and event recorder. A Comm must only be used from the
// goroutine of the program invocation that received it.
type Comm struct {
	world  *World
	rank   int
	clock  float64
	region string
	events []trace.Event
	counts []countEntry
}

// Rank returns this processor's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.engine.Procs() }

// Now returns the rank's virtual clock, in seconds.
func (c *Comm) Now() float64 { return c.clock }

// EnterRegion opens an instrumented code region; timed operations record
// their activity under it. Regions do not nest.
func (c *Comm) EnterRegion(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty region name", ErrBadArgument)
	}
	if c.region != "" {
		return fmt.Errorf("%w: region %q already open", ErrBadArgument, c.region)
	}
	c.region = name
	return nil
}

// ExitRegion closes the current region.
func (c *Comm) ExitRegion() error {
	if c.region == "" {
		return ErrNoRegion
	}
	c.region = ""
	return nil
}

// record appends an event for the half-open interval [start, c.clock).
func (c *Comm) record(activity string, start float64) error {
	if c.region == "" {
		return ErrNoRegion
	}
	e := trace.Event{
		Rank:     c.rank,
		Region:   c.region,
		Activity: activity,
		Start:    start,
		End:      c.clock,
	}
	c.events = append(c.events, e)
	if c.world.sink != nil {
		c.world.sink.Record(e)
	}
	return nil
}

// Compute advances the rank's clock by seconds of computation and records
// it.
func (c *Comm) Compute(seconds float64) error {
	if seconds < 0 || !finite(seconds) {
		return fmt.Errorf("%w: compute time %g", ErrBadArgument, seconds)
	}
	start := c.clock
	c.clock += seconds
	return c.record(ActComputation, start)
}

// Send transmits bytes to rank dst with the given tag. The sender is
// charged the send overhead plus the wire time (eager protocol); the
// message arrives at dst after the latency and wire time have elapsed.
func (c *Comm) Send(dst, tag, bytes int) error {
	return c.SendData(dst, tag, bytes, nil)
}

// SendData is Send with an application payload attached to the message
// (e.g. a halo row), letting simulated programs compute real results.
func (c *Comm) SendData(dst, tag, bytes int, payload any) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative message size %d", ErrBadArgument, bytes)
	}
	if dst == c.rank {
		return fmt.Errorf("%w: send to self", ErrBadArgument)
	}
	cost := c.world.cost
	start := c.clock
	arrival := c.clock + cost.Latency + cost.transfer(bytes)
	msg := sim.Message{Arrival: arrival, Bytes: bytes, Payload: payload}
	if err := c.world.engine.Post(c.rank, dst, tag, msg); err != nil {
		return err
	}
	c.clock += cost.SendOverhead + cost.transfer(bytes)
	c.addBytes(ActPointToPoint, bytes)
	return c.record(ActPointToPoint, start)
}

// Recv blocks until a message from src with the given tag arrives and
// advances the clock to the arrival time (or just past the call time when
// the message was already waiting). The whole wait is recorded as
// point-to-point time.
func (c *Comm) Recv(src, tag int) (bytes int, err error) {
	bytes, _, err = c.RecvData(src, tag)
	return bytes, err
}

// RecvData is Recv returning the message payload as well.
func (c *Comm) RecvData(src, tag int) (bytes int, payload any, err error) {
	if src == c.rank {
		return 0, nil, fmt.Errorf("%w: receive from self", ErrBadArgument)
	}
	start := c.clock
	msg, err := c.world.engine.Fetch(src, c.rank, tag)
	if err != nil {
		return 0, nil, err
	}
	if msg.Arrival > c.clock {
		c.clock = msg.Arrival
	}
	c.addBytes(ActPointToPoint, msg.Bytes)
	return msg.Bytes, msg.Payload, c.record(ActPointToPoint, start)
}

// Sendrecv performs the send and the receive of a neighbor exchange as
// one operation, the idiom of halo exchanges.
func (c *Comm) Sendrecv(dst, sendBytes, src, tag int) (recvBytes int, err error) {
	if err := c.Send(dst, tag, sendBytes); err != nil {
		return 0, err
	}
	return c.Recv(src, tag)
}

// SendrecvData is Sendrecv with payloads.
func (c *Comm) SendrecvData(dst, sendBytes int, sendPayload any, src, tag int) (recvPayload any, err error) {
	if err := c.SendData(dst, tag, sendBytes, sendPayload); err != nil {
		return nil, err
	}
	_, recvPayload, err = c.RecvData(src, tag)
	return recvPayload, err
}

// collective runs one rendezvous with exit time max(arrivals) + cost and
// records the rank's time in it under the activity, contributing value to
// the round's global sum.
func (c *Comm) collective(op, activity string, cost, value float64) (sum float64, err error) {
	res, err := c.collectiveFull(op, activity, cost, value)
	return res.Sum, err
}

// collectiveFull is collective returning the full rendezvous result, for
// operations that need the per-rank vectors (allgather).
func (c *Comm) collectiveFull(op, activity string, cost, value float64) (sim.CollectiveResult, error) {
	start := c.clock
	res, err := c.world.engine.Collective(c.rank, op, c.clock, value)
	if err != nil {
		return sim.CollectiveResult{}, err
	}
	c.clock = res.Max + cost
	return res, c.record(activity, start)
}

// Barrier synchronizes all ranks: everyone leaves at the time the last
// rank arrived plus the tree latency. The wait is recorded as
// synchronization time — the activity the paper found most imbalanced.
func (c *Comm) Barrier() error {
	_, err := c.collective("barrier", ActSynchronization, stages(c.Size())*c.world.cost.CollectiveLatency, 0)
	return err
}

// Allreduce combines bytes from every rank and distributes the result:
// a reduce tree followed by a broadcast tree.
func (c *Comm) Allreduce(bytes int) error {
	_, err := c.AllreduceSum(0, bytes)
	return err
}

// AllreduceSum is Allreduce carrying one float64 of application data: it
// returns the global sum of the values contributed by all ranks (e.g. a
// residual norm).
func (c *Comm) AllreduceSum(value float64, bytes int) (float64, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	cost := 2 * stages(c.Size()) * (c.world.cost.CollectiveLatency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, 2*bytes)
	return c.collective("allreduce", ActCollective, cost, value)
}

// Reduce combines bytes from every rank at a root.
func (c *Comm) Reduce(root, bytes int) error {
	_, err := c.ReduceSum(root, 0, bytes)
	return err
}

// ReduceSum is Reduce carrying one float64 of application data; every rank
// receives the global sum (the simulation does not model root-only
// visibility).
func (c *Comm) ReduceSum(root int, value float64, bytes int) (float64, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	if root < 0 || root >= c.Size() {
		return 0, fmt.Errorf("%w: root %d", ErrBadArgument, root)
	}
	cost := stages(c.Size()) * (c.world.cost.CollectiveLatency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, bytes)
	return c.collective("reduce", ActCollective, cost, value)
}

// Bcast distributes bytes from a root to every rank.
func (c *Comm) Bcast(root, bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: root %d", ErrBadArgument, root)
	}
	cost := stages(c.Size()) * (c.world.cost.CollectiveLatency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, bytes)
	_, err := c.collective("bcast", ActCollective, cost, 0)
	return err
}

// Alltoall exchanges bytes between every pair of ranks: each rank sends
// and receives P-1 messages' worth of data.
func (c *Comm) Alltoall(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadArgument, bytes)
	}
	p := float64(c.Size())
	cost := (p - 1) * (c.world.cost.Latency + c.world.cost.transfer(bytes))
	c.addBytes(ActCollective, (c.Size()-1)*bytes)
	_, err := c.collective("alltoall", ActCollective, cost, 0)
	return err
}

// Skew advances the rank's clock without recording an activity, modeling
// uninstrumented program parts (initialization, I/O outside the measured
// loops). The paper's program spends ~7% of its wall clock time outside
// the instrumented regions.
func (c *Comm) Skew(seconds float64) error {
	if seconds < 0 || !finite(seconds) {
		return fmt.Errorf("%w: skew %g", ErrBadArgument, seconds)
	}
	c.clock += seconds
	return nil
}
