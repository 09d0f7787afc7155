package monitor

// This file implements the network ingest path: a listener that accepts
// wire-protocol connections (internal/tracefmt's binary event stream) and
// feeds each one into the collector through its own SPSC Producer ring.
// Remote instrumented programs — other processes, other hosts — publish
// events through an IngestClient (client.go) and the daemon aggregates
// them exactly as if they had been recorded in-process: the wire codec is
// lossless and the producer path applies Record's validity rule, so the
// resulting cube is bit-identical to an in-process fold of the same
// stream.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// Ingest metric family names served at /metrics (see
// IngestServer.WriteMetrics).
const (
	MetricIngestConnsTotal   = "loadimb_ingest_connections_total"
	MetricIngestConnsActive  = "loadimb_ingest_connections_active"
	MetricIngestEventsTotal  = "loadimb_ingest_events_total"
	MetricIngestBatchesTotal = "loadimb_ingest_batches_total"
	MetricIngestBytesTotal   = "loadimb_ingest_bytes_total"
	MetricIngestDecodeErrors = "loadimb_ingest_decode_errors_total"
	MetricIngestDroppedTotal = "loadimb_ingest_dropped_total"
	MetricIngestStallsTotal  = "loadimb_ingest_stalls_total"
	MetricIngestConnEvents   = "loadimb_ingest_conn_events_total"
	MetricIngestConnDropped  = "loadimb_ingest_conn_dropped_total"
	MetricIngestConnStalls   = "loadimb_ingest_conn_stalls_total"
)

// DefaultIngestRing is the capacity in events of every producer ring, a
// power of two: one connection can carry a whole job's event stream, and
// its ring must absorb the burst between two background folds.
const DefaultIngestRing = 1 << 16

// foldIdle is how long the background folder sleeps after finding all
// rings empty; while events are flowing it folds continuously.
const foldIdle = 500 * time.Microsecond

// IngestOptions configures an IngestServer.
type IngestOptions struct {
	// DropOnFull selects the per-connection overflow policy. False
	// (default) applies backpressure through TCP/UDS flow control: the
	// reader stalls until the fold frees ring space, the kernel buffers
	// fill, the producer's writes block — nothing is lost. True drops
	// overflowing events (counted per connection), never stalling the
	// socket — for observers that prefer losing samples to perturbing
	// anything.
	DropOnFull bool
}

// IngestServer accepts binary event-stream connections and feeds them
// into a Collector. Create one with NewIngestServer, add listeners with
// Listen, and Close it to stop accepting and release them. A background
// folder goroutine keeps the producer rings shallow between scrapes, so
// ingest throughput is bounded by the fold rate, not the scrape rate.
type IngestServer struct {
	c    *Collector
	opts IngestOptions

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[uint64]*ingestConn
	closed    bool
	foldStop  chan struct{}

	wg     sync.WaitGroup
	connWG sync.WaitGroup

	connSeq      atomic.Uint64
	connsActive  atomic.Int64
	events       atomic.Uint64
	batches      atomic.Uint64
	bytes        atomic.Uint64
	decodeErrors atomic.Uint64
	// droppedGone / stallsGone accumulate the producer-loss counters of
	// closed connections, so the totals keep counting after churn.
	droppedGone atomic.Uint64
	stallsGone  atomic.Uint64
}

// ingestConn is the per-connection state the metrics report on.
type ingestConn struct {
	id     uint64
	addr   string
	conn   net.Conn
	p      *Producer
	events atomic.Uint64
}

// NewIngestServer creates an ingest server feeding the collector and
// starts its background folder.
func NewIngestServer(c *Collector, opts IngestOptions) *IngestServer {
	s := &IngestServer{
		c:        c,
		opts:     opts,
		conns:    make(map[uint64]*ingestConn),
		foldStop: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.foldLoop()
	return s
}

// foldLoop drains the collector continuously while events flow and backs
// off to foldIdle naps when everything is empty. It is the consumer the
// blocking producers depend on: without it, a full ring would stall its
// connection until the next scrape.
func (s *IngestServer) foldLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.foldStop:
			return
		default:
		}
		if s.c.Fold() == 0 {
			select {
			case <-s.foldStop:
				return
			case <-time.After(foldIdle):
			}
		}
	}
}

// ParseIngestSpec splits a listener/dial spec into a network and address:
// "unix:PATH" for a Unix domain socket, "tcp:HOST:PORT" for TCP.
func ParseIngestSpec(spec string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", spec[len("unix:"):], nil
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", spec[len("tcp:"):], nil
	default:
		return "", "", fmt.Errorf("ingest spec %q: want unix:PATH or tcp:HOST:PORT", spec)
	}
}

// Listen adds a listener for the given spec ("unix:PATH" or
// "tcp:HOST:PORT") and starts accepting connections on it. A stale socket
// at a unix path is removed first, so a daemon restarted after a crash
// rebinds instead of failing on the leftover inode. Anything else at the
// path is left alone and the listen fails.
func (s *IngestServer) Listen(spec string) (net.Addr, error) {
	network, addr, err := ParseIngestSpec(spec)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		if fi, err := os.Lstat(addr); err == nil && fi.Mode()&os.ModeSocket != 0 {
			_ = os.Remove(addr)
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("ingest listen %s: %w", spec, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil, errors.New("ingest server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *IngestServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed (or a fatal accept error): stop this loop;
			// transient per-connection errors do not reach here for the
			// stream listeners we use.
			return
		}
		ic := s.register(conn)
		if ic == nil {
			return
		}
		go s.handle(ic)
	}
}

// register records an accepted connection under the lock Close sweeps
// with, so either Close sees it (closes it and waits for its handler) or
// the server is already closed and the connection is dropped here — it
// returns nil then. connWG.Add therefore never races Close's Wait, and
// no handler outlives Close.
func (s *IngestServer) register(conn net.Conn) *ingestConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = conn.Close()
		return nil
	}
	ic := &ingestConn{
		id:   s.connSeq.Add(1),
		addr: conn.RemoteAddr().String(),
		conn: conn,
		p:    s.c.Producer(ProducerOptions{DropOnFull: s.opts.DropOnFull}),
	}
	s.conns[ic.id] = ic
	s.connWG.Add(1)
	s.connsActive.Add(1)
	return ic
}

// handle drains one registered connection: handshake, frames, events
// into the connection's producer ring. Decode errors terminate the
// connection (the stream is corrupt beyond resync) but never the server.
func (s *IngestServer) handle(ic *ingestConn) {
	defer s.connWG.Done()
	defer ic.conn.Close()
	defer func() {
		ic.p.Close()
		s.droppedGone.Add(ic.p.Dropped())
		s.stallsGone.Add(ic.p.Stalls())
		s.connsActive.Add(-1)
		s.mu.Lock()
		delete(s.conns, ic.id)
		s.mu.Unlock()
	}()

	// No bufio here: NewWireDecoder buffers the stream itself, and a
	// second layer would just add one more copy per byte on the hot path.
	cr := &countingReader{r: ic.conn, n: &s.bytes}
	dec := tracefmt.NewWireDecoder(cr)
	sp := slabPool.Get().(*[]trace.Event)
	batch := *sp
	for {
		var err error
		batch, err = dec.DecodeBatch(batch[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			s.decodeErrors.Add(1)
			break
		}
		s.batches.Add(1)
		s.events.Add(uint64(len(batch)))
		ic.events.Add(uint64(len(batch)))
		ic.p.RecordBatch(batch)
	}
	*sp = batch[:0]
	slabPool.Put(sp)
}

// countingReader counts the bytes read from the underlying connection.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// Close stops accepting, closes every listener, waits for in-flight
// connections to finish, stops the background folder, and folds whatever
// is left so the collector's next snapshot is complete.
func (s *IngestServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	// Unblock in-flight connection readers too: a client that never
	// closes its end would otherwise hold Close forever.
	for _, ic := range s.conns {
		_ = ic.conn.Close()
	}
	s.mu.Unlock()
	var first error
	for _, ln := range listeners {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.connWG.Wait()
	close(s.foldStop)
	s.wg.Wait()
	s.c.Fold()
	return first
}

// Dropped returns the total ring-overflow drops across all connections,
// past and present (only nonzero in DropOnFull mode).
func (s *IngestServer) Dropped() uint64 {
	total := s.droppedGone.Load()
	s.mu.Lock()
	for _, ic := range s.conns {
		total += ic.p.Dropped()
	}
	s.mu.Unlock()
	return total
}

// Events returns the total events decoded from all connections.
func (s *IngestServer) Events() uint64 { return s.events.Load() }

// WriteMetrics appends the ingest counters to a Prometheus text
// exposition: totals for connections, events, batches, bytes, decode
// errors, ring drops and backpressure stalls, plus per-active-connection
// event/drop/stall counters labeled by connection id and remote address.
func (s *IngestServer) WriteMetrics(w io.Writer) error {
	m := NewMetricsWriter(w)
	var dropped, stalls uint64
	s.mu.Lock()
	conns := make([]*ingestConn, 0, len(s.conns))
	for _, ic := range s.conns {
		conns = append(conns, ic)
	}
	s.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	dropped, stalls = s.droppedGone.Load(), s.stallsGone.Load()
	for _, ic := range conns {
		dropped += ic.p.Dropped()
		stalls += ic.p.Stalls()
	}

	m.Family(MetricIngestConnsTotal, "Ingest connections accepted.", "counter")
	m.Sample(float64(s.connSeq.Load()))
	m.Family(MetricIngestConnsActive, "Ingest connections currently open.", "gauge")
	m.Sample(float64(s.connsActive.Load()))
	m.Family(MetricIngestEventsTotal, "Events decoded from ingest connections.", "counter")
	m.Sample(float64(s.events.Load()))
	m.Family(MetricIngestBatchesTotal, "Wire frames decoded from ingest connections.", "counter")
	m.Sample(float64(s.batches.Load()))
	m.Family(MetricIngestBytesTotal, "Bytes read from ingest connections.", "counter")
	m.Sample(float64(s.bytes.Load()))
	m.Family(MetricIngestDecodeErrors, "Ingest connections terminated by a corrupt stream.", "counter")
	m.Sample(float64(s.decodeErrors.Load()))
	m.Family(MetricIngestDroppedTotal, "Events dropped because a connection's ring was full.", "counter")
	m.Sample(float64(dropped))
	m.Family(MetricIngestStallsTotal, "Backpressure stall episodes across ingest connections.", "counter")
	m.Sample(float64(stalls))
	if len(conns) == 0 {
		return m.err
	}
	// Per-connection families, each one group over the open connections.
	for _, fam := range []struct {
		name, help string
		value      func(*ingestConn) uint64
	}{
		{MetricIngestConnEvents, "Events decoded from each open connection.",
			func(ic *ingestConn) uint64 { return ic.events.Load() }},
		{MetricIngestConnDropped, "Ring-overflow drops of each open connection.",
			func(ic *ingestConn) uint64 { return ic.p.Dropped() }},
		{MetricIngestConnStalls, "Backpressure stalls of each open connection.",
			func(ic *ingestConn) uint64 { return ic.p.Stalls() }},
	} {
		m.Family(fam.name, fam.help, "counter")
		for _, ic := range conns {
			m.Sample(float64(fam.value(ic)),
				Label("conn", strconv.FormatUint(ic.id, 10)), Label("addr", ic.addr))
		}
	}
	return m.err
}
