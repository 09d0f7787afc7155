package monitor

// This file implements the collector's intake: a single-producer
// single-consumer (SPSC) ring buffer of events per producer, drained by
// the fold under foldMu. One producer is one event source — the
// collector's own Record path, a rank's instrumentation thread, or one
// ingest connection — and owns its ring exclusively, so the steady-state
// publish path is two atomic loads, a memcpy into the ring, and one
// atomic store: no locks, no channel, and zero heap allocations (the
// acceptance guard is TestProducerRecordBatchAllocs). The consumer folds
// ring spans in place, releasing each chunk's space to the producer as
// soon as it is folded.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"loadimb/internal/trace"
)

const (
	// slabSize is the largest span a drain folds before releasing it to
	// the producer, and the capacity of the pooled ingest decode buffers.
	slabSize = 4096
	// recordRing is the capacity in events of the collector's own ring,
	// the one Record and RecordBatch publish into. It is small because
	// every collector pays for it and a recorder folds it whenever it
	// fills, so it only has to absorb the burst between two folds.
	recordRing = 256
)

// slabPool recycles the ingest decode buffers, so connection churn reuses
// a handful of arrays instead of allocating one per connection.
var slabPool = sync.Pool{New: func() any {
	s := make([]trace.Event, 0, slabSize)
	return &s
}}

// ProducerOptions configures one SPSC producer handle. Every ring a
// Producer call creates holds DefaultIngestRing events.
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
// call RecordBatch/Close on a given Producer; any number of
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
	return c.newProducer(DefaultIngestRing, opts.DropOnFull)
}

// newProducer registers a producer over a ring of size events, a power of
// two.
func (c *Collector) newProducer(size int, drop bool) *Producer {
	p := &Producer{
		c:    c,
		ring: make([]trace.Event, size),
		mask: uint64(size - 1),
		drop: drop,
	}
	c.prodMu.Lock()
	c.producers = append(c.producers, p)
	c.prodMu.Unlock()
	return p
}

// RecordBatch publishes a batch of events into the ring: the hot path of
// every intake, Collector.Record included. Malformed events are dropped
// and counted on the collector (see Collector.Record); the event counter
// is bumped once per batch. The batch slice is not retained.
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
				p.wait()
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

// wait lets the consumer of a full ring free space. The collector's own
// Record ring has no background consumer, so its recorder folds the ring
// itself when the fold is free; while a Snapshot or Fold holds it, the
// recorder yields, and that fold drains the Record ring first. Any other
// ring yields to its consumer — for an ingest connection, the
// IngestServer's background folder.
func (p *Producer) wait() {
	if p == p.c.rec && p.c.foldMu.TryLock() {
		p.drain(&p.c.state)
		p.c.foldMu.Unlock()
		return
	}
	runtime.Gosched()
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

// drain folds every event currently in the ring into the fold state. It
// runs under Collector.foldMu (single consumer). Spans are folded in place,
// straight from the ring slots, in chunks of at most slabSize events, and
// the consumer cursor advances after each chunk, so a stalled producer
// regains space while the rest of the drain is still folding.
func (p *Producer) drain(st *foldState) int {
	head := p.head.Load()
	tail := p.tail.Load()
	total := int(tail - head)
	for head != tail {
		n := tail - head
		if n > slabSize {
			n = slabSize
		}
		idx := head & p.mask
		if wrap := uint64(len(p.ring)) - idx; n > wrap {
			n = wrap
		}
		for _, e := range p.ring[idx : idx+n] {
			st.fold(e)
		}
		head += n
		p.head.Store(head)
	}
	return total
}
