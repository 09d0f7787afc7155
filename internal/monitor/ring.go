package monitor

// This file implements the collector's high-throughput producer path: a
// single-producer single-consumer (SPSC) ring buffer of events per
// producer, drained by the fold under foldMu. One producer is one event
// source — a rank's instrumentation thread, or one ingest connection —
// and owns its ring exclusively, so the steady-state publish path is two
// atomic loads, a memcpy into the ring, and one atomic store: no locks,
// no channel, and zero heap allocations (the acceptance guard is
// TestProducerRecordBatchAllocs). The consumer copies ring spans into
// pooled slabs before folding, releasing ring space to the producer as
// early as possible.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"loadimb/internal/trace"
)

const (
	// slabSize is the event capacity of the pooled drain slabs, and the
	// decode batch size of the ingest path.
	slabSize = 4096
	// maxRecycledSlab bounds the shard buffers kept for reuse across
	// drains: a burst may grow a buffer far beyond the steady state, and
	// recycling a monster would pin its memory forever.
	maxRecycledSlab = 1 << 16
)

// slabPool recycles the drain-side event slabs: ring drains, shift
// scratch and ingest decode buffers all draw from it, so the steady state
// of every batched path reuses a handful of arrays instead of allocating
// per cycle.
var slabPool = sync.Pool{New: func() any {
	s := make([]trace.Event, 0, slabSize)
	return &s
}}

// ProducerOptions configures one SPSC producer handle. Every producer
// ring holds DefaultIngestRing events.
type ProducerOptions struct {
	// DropOnFull selects the overflow policy. False (default) applies
	// backpressure: RecordBatch spins (yielding) until the consumer frees
	// space — nothing is lost, the producer stalls. True drops the
	// overflowing events and counts them (Dropped), never blocking — the
	// policy for producers that must not be perturbed by a slow observer.
	DropOnFull bool
}

// A Producer is a lock-free single-producer handle onto a collector: an
// SPSC ring the collector drains at every fold. Exactly one goroutine may
// call Record/RecordBatch/Close on a given Producer; any number of
// producers may feed the same collector concurrently. Create one with
// Collector.Producer, and Close it when the source ends so the collector
// can release the ring after the final drain.
type Producer struct {
	c    *Collector
	ring []trace.Event
	mask uint64
	drop bool

	// head is the consumer cursor, tail the producer cursor; both grow
	// without wrapping (slot = cursor & mask). The pads keep the two
	// cursors on separate cache lines: the producer spins on head while
	// the consumer stores it, and false sharing with tail would put the
	// producer's own stores on the same contended line.
	_      [64]byte
	head   atomic.Uint64
	_      [56]byte
	tail   atomic.Uint64
	_      [56]byte
	closed atomic.Bool

	// dropped counts events discarded because the ring was full (only in
	// DropOnFull mode); stalls counts backpressure wait episodes (only in
	// blocking mode). Both are producer-loss accounting, distinct from the
	// collector's malformed-event counter.
	dropped atomic.Uint64
	stalls  atomic.Uint64
}

// Producer registers and returns a new SPSC producer handle on the
// collector.
func (c *Collector) Producer(opts ProducerOptions) *Producer {
	p := &Producer{
		c:    c,
		ring: make([]trace.Event, DefaultIngestRing),
		mask: DefaultIngestRing - 1,
		drop: opts.DropOnFull,
	}
	c.prodMu.Lock()
	c.producers = append(c.producers, p)
	c.prodMu.Unlock()
	return p
}

// Record publishes one event; it is RecordBatch of a one-event batch.
func (p *Producer) Record(e trace.Event) {
	batch := [1]trace.Event{e}
	p.RecordBatch(batch[:])
}

// RecordBatch publishes a batch of events into the ring: the steady-state
// hot path of the batched ingest subsystem. Malformed events are dropped
// and counted exactly as Collector.Record would (the batched path is
// bit-for-bit equivalent to per-event recording); the event counter is
// bumped once per batch. The batch slice is not retained.
func (p *Producer) RecordBatch(events []trace.Event) {
	var written, malformed, lost uint64
	ring, mask := p.ring, p.mask
	size := uint64(len(ring))
	tail := p.tail.Load()
	i := 0
	for i < len(events) {
		free := size - (tail - p.head.Load())
		if free == 0 {
			if p.drop {
				// Count the remaining well-formed events as ring drops
				// (malformed ones were never going to be recorded).
				for ; i < len(events); i++ {
					if p.c.malformed(events[i]) {
						malformed++
					} else {
						lost++
					}
				}
				break
			}
			p.stalls.Add(1)
			for size-(tail-p.head.Load()) == 0 {
				runtime.Gosched()
			}
			continue
		}
		for free > 0 && i < len(events) {
			e := events[i]
			i++
			if p.c.malformed(e) {
				malformed++
				continue
			}
			ring[tail&mask] = e
			tail++
			free--
			written++
		}
		p.tail.Store(tail)
	}
	if written > 0 {
		p.c.events.Add(written)
	}
	if malformed > 0 {
		p.c.dropped.Add(malformed)
	}
	if lost > 0 {
		p.dropped.Add(lost)
	}
}

// Dropped returns the number of events discarded because the ring was
// full (DropOnFull mode).
func (p *Producer) Dropped() uint64 { return p.dropped.Load() }

// Stalls returns the number of backpressure wait episodes (blocking
// mode).
func (p *Producer) Stalls() uint64 { return p.stalls.Load() }

// Pending returns the number of events currently buffered in the ring.
func (p *Producer) Pending() int { return int(p.tail.Load() - p.head.Load()) }

// Close marks the producer finished. The producing goroutine must not
// publish after Close; the collector drains whatever is still in the ring
// at the next fold and then unregisters the handle.
func (p *Producer) Close() { p.closed.Store(true) }

// drain consumes every event currently in the ring into the fold state.
// It runs under Collector.foldMu (single consumer). Ring spans are copied
// into a pooled slab and the consumer cursor advanced *before* folding,
// so the producer regains the space while the fold — the expensive part —
// is still running.
func (p *Producer) drain(st *foldState) int {
	head := p.head.Load()
	tail := p.tail.Load()
	if head == tail {
		return 0
	}
	total := int(tail - head)
	sp := slabPool.Get().(*[]trace.Event)
	slab := *sp
	for head != tail {
		n := tail - head
		if n > slabSize {
			n = slabSize
		}
		idx := head & p.mask
		if wrap := uint64(len(p.ring)) - idx; n > wrap {
			n = wrap
		}
		slab = append(slab[:0], p.ring[idx:idx+n]...)
		head += n
		p.head.Store(head)
		for _, e := range slab {
			st.fold(e)
		}
	}
	*sp = slab[:0]
	slabPool.Put(sp)
	return total
}
