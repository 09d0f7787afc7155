package monitor

// This file implements the producer side of the network ingest path: an
// IngestClient is a trace.Sink (and BatchSink) that ships events to a
// remote collector over the binary wire protocol. Instrumented programs
// plug it in wherever they would plug a Collector — the cfd solver's
// Config.Sink, a replay tool — and the remote daemon folds the stream
// exactly as a local collector would have.

import (
	"bufio"
	"net"
	"sync"
	"time"

	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// ClientOptions configures an IngestClient.
type ClientOptions struct {
	// Batch is the number of buffered events that triggers an automatic
	// flush (one wire frame). 0 means 1024; values above
	// tracefmt.MaxWireBatch are clamped to it.
	Batch int
	// FlushInterval bounds the latency of a trickling producer: a
	// background timer flushes the partial batch this often. 0 means
	// 100 milliseconds; negative disables the timer (flushes happen only
	// on a full batch, an explicit Flush, or Close).
	FlushInterval time.Duration
}

// IngestClient streams events to a remote collector's ingest listener.
// It implements trace.Sink and trace.BatchSink and is safe for concurrent
// use; events are buffered into frames, so the per-event cost is an
// append under a mutex. Transport errors are sticky: the client drops
// subsequent events and reports the error from Flush, Err and Close —
// instrumentation must keep running even when the observer goes away.
// A client never reconnects: when the collector restarts, the first
// failing write (over TCP possibly one flush late) makes the error sticky
// and every later event is lost. To resume, dial a new client.
type IngestClient struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	enc     *tracefmt.WireEncoder
	buf     []trace.Event
	batch   int
	err     error
	stop    chan struct{}
	stopped sync.WaitGroup
}

// DialIngest connects once to a collector's ingest listener (see
// IngestClient on restarts). The spec uses the listener syntax:
// "unix:PATH" or "tcp:HOST:PORT".
func DialIngest(spec string, opts ClientOptions) (*IngestClient, error) {
	network, addr, err := ParseIngestSpec(spec)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = 1024
	}
	if batch > tracefmt.MaxWireBatch {
		batch = tracefmt.MaxWireBatch
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	c := &IngestClient{
		conn:  conn,
		bw:    bw,
		enc:   tracefmt.NewWireEncoder(bw),
		buf:   make([]trace.Event, 0, batch),
		batch: batch,
		stop:  make(chan struct{}),
	}
	interval := opts.FlushInterval
	if interval == 0 {
		interval = 100 * time.Millisecond
	}
	if interval > 0 {
		c.stopped.Add(1)
		go func() {
			defer c.stopped.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					_ = c.Flush()
				}
			}
		}()
	}
	return c, nil
}

// Record buffers one event, flushing a frame when the batch fills.
func (c *IngestClient) Record(e trace.Event) {
	c.mu.Lock()
	if c.err == nil {
		c.buf = append(c.buf, e)
		if len(c.buf) >= c.batch {
			c.flushLocked()
		}
	}
	c.mu.Unlock()
}

// RecordBatch buffers a whole batch, flushing full frames as it goes. The
// slice is not retained.
func (c *IngestClient) RecordBatch(events []trace.Event) {
	c.mu.Lock()
	for c.err == nil && len(events) > 0 {
		n := c.batch - len(c.buf)
		if n > len(events) {
			n = len(events)
		}
		c.buf = append(c.buf, events[:n]...)
		events = events[n:]
		if len(c.buf) >= c.batch {
			c.flushLocked()
		}
	}
	c.mu.Unlock()
}

// Flush encodes and sends the buffered partial batch, returning the
// sticky transport error if any.
func (c *IngestClient) Flush() error {
	c.mu.Lock()
	c.flushLocked()
	err := c.err
	c.mu.Unlock()
	return err
}

func (c *IngestClient) flushLocked() {
	if c.err == nil && len(c.buf) > 0 {
		c.err = c.enc.EncodeBatch(c.buf)
	}
	if c.err == nil {
		c.err = c.bw.Flush()
	}
	c.buf = c.buf[:0]
}

// Err returns the sticky transport error, nil while the stream is
// healthy.
func (c *IngestClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes the remaining events, stops the flush timer and closes
// the connection. It returns the first error of the stream.
func (c *IngestClient) Close() error {
	c.mu.Lock()
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.flushLocked()
	err := c.err
	cerr := c.conn.Close()
	if err == nil {
		err = cerr
	}
	c.mu.Unlock()
	c.stopped.Wait()
	return err
}
