// Package sim is a deterministic virtual-time engine for simulating
// message-passing programs: the substrate that stands in for the paper's
// IBM SP2. P ranks run concurrently as goroutines, each owning a virtual
// clock; the engine provides the two coordination primitives every
// message-passing model needs — point-to-point messages, queued in one
// inbox per destination rank, and collective rendezvous — exchanging
// *virtual timestamps* rather than data.
//
// Determinism: all virtual times are pure functions of the timestamps the
// ranks exchange, never of real time or of the goroutine schedule. Message
// matching is FIFO per (src, dst, tag) channel and each rank is a single
// goroutine, so repeated runs of the same program produce identical
// virtual-time traces.
//
// The cost model (how long a send, a reduction or a barrier takes) lives in
// the layer above (internal/mpi); sim only coordinates.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Common engine errors.
var (
	// ErrBadRanks is returned when an engine is created with no ranks.
	ErrBadRanks = errors.New("sim: need at least one rank")
	// ErrCanceled is returned by blocking operations when another rank
	// failed and the run is being torn down.
	ErrCanceled = errors.New("sim: run canceled by another rank's failure")
	// ErrCollectiveMismatch is returned when ranks disagree on which
	// collective operation they are executing.
	ErrCollectiveMismatch = errors.New("sim: collective operation mismatch")
	// ErrLeftoverMessages is returned by Run when messages were posted
	// but never received.
	ErrLeftoverMessages = errors.New("sim: unreceived messages at end of run")
	// ErrRankRange is returned for out-of-range rank ids.
	ErrRankRange = errors.New("sim: rank out of range")
)

// Message is a point-to-point virtual message: its timing and size drive
// the simulation, and an optional payload carries application data (halo
// rows, boundary values) for programs that compute real results.
type Message struct {
	// Arrival is the virtual time at which the message is available at
	// the destination.
	Arrival float64
	// Bytes is the message size, carried for accounting.
	Bytes int
	// Payload is opaque application data.
	Payload any
}

// chanKey identifies one FIFO message channel into a destination rank.
type chanKey struct {
	src, tag int
}

// queue is one channel's FIFO: msgs[head:] are the undelivered messages.
// Its first buffer is the one-message array inside it, which is all a
// channel that carries one message at a time ever needs.
type queue struct {
	msgs  []Message
	head  int
	next  *queue // the next spare queue, while this one is spare
	first [1]Message
}

func (q *queue) push(msg Message) {
	if len(q.msgs) == cap(q.msgs) {
		q.grow()
	}
	q.msgs = append(q.msgs, msg)
}

// grow makes room for one more message: it slides the undelivered
// messages to the front of the buffer when some were delivered, and
// otherwise moves them to a buffer twice the size. The slots it leaves
// are cleared, so no payload outlives its delivery.
func (q *queue) grow() {
	if q.head > 0 {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
		return
	}
	msgs := make([]Message, len(q.msgs), 2*cap(q.msgs))
	copy(msgs, q.msgs)
	clear(q.msgs)
	q.msgs = msgs
}

func (q *queue) pending() int { return len(q.msgs) - q.head }

// inbox holds every message posted to one destination rank: a FIFO queue
// per (src, tag) channel, under one lock. A queue that drains leaves the
// map for the spare list with its buffer, and the next channel to open
// takes it, so a program that opens a fresh tag every phase allocates no
// more than one that reuses its tags.
type inbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queues map[chanKey]*queue // only channels with undelivered messages
	spare  *queue             // drained queues, linked through next
	made   int                // queues allocated so far
	closed bool
}

// take returns a spare queue. When none is left it allocates as many
// queues as the inbox has made so far in one block, so an inbox that
// holds n channels open at once makes its queues in O(log n) allocations.
func (b *inbox) take() *queue {
	if b.spare == nil {
		block := make([]queue, max(b.made, 1))
		b.made += len(block)
		for i := range block {
			block[i].msgs = block[i].first[:0]
			block[i].next = b.spare
			b.spare = &block[i]
		}
	}
	q := b.spare
	b.spare, q.next = q.next, nil
	return q
}

func (b *inbox) post(k chanKey, msg Message) {
	b.mu.Lock()
	q := b.queues[k]
	if q == nil {
		if b.queues == nil {
			b.queues = make(map[chanKey]*queue)
		}
		q = b.take()
		b.queues[k] = q
	}
	q.push(msg)
	b.mu.Unlock()
	// Any goroutine may fetch for any destination, so the waiter for
	// this channel need not be the first in line: wake them all.
	b.cond.Broadcast()
}

// fetch blocks until a message is queued on channel k and dequeues it.
// Queued messages are delivered even after the inbox is closed; a fetch
// that would block on a closed inbox fails with ErrCanceled.
func (b *inbox) fetch(k chanKey) (Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[k]
	for q == nil {
		if b.closed {
			return Message{}, ErrCanceled
		}
		b.cond.Wait()
		q = b.queues[k]
	}
	msg := q.msgs[q.head]
	q.msgs[q.head] = Message{} // drop the payload reference
	q.head++
	if q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
		delete(b.queues, k)
		q.next, b.spare = b.spare, q
	}
	return msg, nil
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *inbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, q := range b.queues {
		n += q.pending()
	}
	return n
}

// round is one collective rendezvous: it completes when all ranks have
// entered, at which point every participant observes the same maximum
// arrival time. Its vectors are written only while ranks enter and never
// after the round completes.
type round struct {
	op      string
	count   int
	max     float64
	sum     float64
	done    chan struct{}
	err     error
	arrival []float64 // per-rank arrival times
	values  []float64 // per-rank contributed values
}

// Engine coordinates one simulated run.
type Engine struct {
	procs   int
	inboxes []inbox // indexed by destination rank

	mu      sync.Mutex // guards current
	current *round

	cancel     chan struct{}
	cancelOnce sync.Once
}

// NewEngine creates an engine for the given number of ranks.
func NewEngine(procs int) (*Engine, error) {
	if procs < 1 {
		return nil, ErrBadRanks
	}
	e := &Engine{
		procs:   procs,
		inboxes: make([]inbox, procs),
		cancel:  make(chan struct{}),
	}
	for i := range e.inboxes {
		e.inboxes[i].cond.L = &e.inboxes[i].mu
	}
	return e, nil
}

// Procs returns the number of ranks.
func (e *Engine) Procs() int { return e.procs }

func (e *Engine) checkRank(r int) error {
	if r < 0 || r >= e.procs {
		return fmt.Errorf("%w: %d of %d", ErrRankRange, r, e.procs)
	}
	return nil
}

// Post delivers a message from src to dst on the tag channel. It never
// blocks (eager buffered communication).
func (e *Engine) Post(src, dst, tag int, msg Message) error {
	if err := e.checkRank(src); err != nil {
		return err
	}
	if err := e.checkRank(dst); err != nil {
		return err
	}
	e.inboxes[dst].post(chanKey{src, tag}, msg)
	return nil
}

// Fetch blocks until a message from src to dst on the tag channel is
// available and returns it. It fails with ErrCanceled when the run is torn
// down while waiting, or has been before it was called.
func (e *Engine) Fetch(src, dst, tag int) (Message, error) {
	if err := e.checkRank(src); err != nil {
		return Message{}, err
	}
	if err := e.checkRank(dst); err != nil {
		return Message{}, err
	}
	return e.inboxes[dst].fetch(chanKey{src, tag})
}

// CollectiveResult is what every participant of a collective rendezvous
// observes once the last rank has entered.
type CollectiveResult struct {
	// Max is the maximum arrival time over all ranks: the virtual time
	// at which the collective can logically complete.
	Max float64
	// Sum is the sum of the values contributed by the ranks, supporting
	// global reductions of application data (e.g. residual norms).
	Sum float64
	r   *round
}

// Arrivals returns a fresh copy of each rank's arrival time, indexed by
// rank.
func (c CollectiveResult) Arrivals() []float64 {
	if c.r == nil {
		return nil
	}
	return slices.Clone(c.r.arrival)
}

// Values returns a fresh copy of each rank's contributed value, indexed
// by rank — the payload of allgather-style collectives (e.g. per-rank
// load vectors for rebalancing decisions).
func (c CollectiveResult) Values() []float64 {
	if c.r == nil {
		return nil
	}
	return slices.Clone(c.r.values)
}

// Collective enters rank into the collective rendezvous named op at the
// given virtual arrival time, contributing value to the round's global
// sum, and blocks until all ranks have entered. All ranks must call the
// same op in the same order; a mismatch fails the round for every
// participant.
func (e *Engine) Collective(rank int, op string, arrival, value float64) (CollectiveResult, error) {
	if err := e.checkRank(rank); err != nil {
		return CollectiveResult{}, err
	}
	e.mu.Lock()
	if e.current == nil {
		vecs := make([]float64, 2*e.procs)
		e.current = &round{
			op:      op,
			done:    make(chan struct{}),
			arrival: vecs[:e.procs:e.procs],
			values:  vecs[e.procs:],
		}
	}
	r := e.current
	if r.op != op && r.err == nil {
		r.err = fmt.Errorf("%w: %q vs %q", ErrCollectiveMismatch, r.op, op)
	}
	r.count++
	r.arrival[rank] = arrival
	r.values[rank] = value
	r.sum += value
	if arrival > r.max {
		r.max = arrival
	}
	if r.count == e.procs {
		e.current = nil
		close(r.done)
	}
	e.mu.Unlock()

	select {
	case <-r.done:
	case <-e.cancel:
		return CollectiveResult{}, ErrCanceled
	}
	if r.err != nil {
		return CollectiveResult{}, r.err
	}
	return CollectiveResult{Max: r.max, Sum: r.sum, r: r}, nil
}

// abort tears down the run: it closes every inbox, so every blocked or
// later Fetch that finds nothing queued fails with ErrCanceled, and wakes
// every rank waiting in a collective.
func (e *Engine) abort() {
	e.cancelOnce.Do(func() {
		close(e.cancel)
		for i := range e.inboxes {
			e.inboxes[i].close()
		}
	})
}

// Run executes program once per rank, concurrently, and waits for all
// ranks to finish. The first error aborts the run (unblocking every rank)
// and is returned. A successful run additionally verifies that no posted
// message went unreceived.
func (e *Engine) Run(program func(rank int) error) error {
	errs := make([]error, e.procs)
	var wg sync.WaitGroup
	for r := 0; r < e.procs; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("sim: rank %d panicked: %v", rank, p)
					e.abort()
				}
			}()
			if err := program(rank); err != nil {
				errs[rank] = fmt.Errorf("sim: rank %d: %w", rank, err)
				e.abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	leftover := 0
	for i := range e.inboxes {
		leftover += e.inboxes[i].pending()
	}
	if leftover > 0 {
		return fmt.Errorf("%w: %d", ErrLeftoverMessages, leftover)
	}
	return nil
}
