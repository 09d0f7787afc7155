package monitor

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// ingestSpecs returns the listener specs the end-to-end tests cover: a
// Unix domain socket and a loopback TCP port.
func ingestSpecs(t *testing.T) []string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "ingest.sock")
	return []string{"unix:" + sock, "tcp:127.0.0.1:0"}
}

// TestIngestEndToEnd: events shipped through the wire protocol (over UDS
// and TCP) land in the collector bit-identically to recording them
// in-process — the full producer→encoder→socket→decoder→ring→fold loop.
func TestIngestEndToEnd(t *testing.T) {
	for _, spec := range ingestSpecs(t) {
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			events := batchEvents(rand.New(rand.NewSource(21)), 5000, 6, false)
			ref := NewCollector(Options{Window: 0.25})
			for _, e := range events {
				ref.Record(e)
			}

			c := NewCollector(Options{Window: 0.25})
			srv := NewIngestServer(c, IngestOptions{})
			addr, err := srv.Listen(spec)
			if err != nil {
				t.Fatalf("listen %s: %v", spec, err)
			}
			dial := spec
			if strings.HasPrefix(spec, "tcp:") {
				dial = "tcp:" + addr.String() // resolve the :0 port
			}
			cl, err := DialIngest(dial, ClientOptions{Batch: 256})
			if err != nil {
				t.Fatalf("dial %s: %v", dial, err)
			}
			var sink trace.Sink = cl // the client is a plain sink to its users
			rest := events
			for len(rest) > 0 {
				n := 700
				if n > len(rest) {
					n = len(rest)
				}
				trace.RecordBatch(sink, rest[:n])
				rest = rest[n:]
			}
			if err := cl.Close(); err != nil {
				t.Fatalf("closing client: %v", err)
			}
			// The server folds asynchronously; wait for the last event.
			deadline := time.Now().Add(5 * time.Second)
			for c.Events() < uint64(len(events)) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("closing server: %v", err)
			}
			if got := srv.Events(); got != uint64(len(events)) {
				t.Fatalf("server decoded %d events, want %d", got, len(events))
			}
			// One connection, one stream: the remote fold order equals the
			// in-process record order, so the snapshots are bit-identical.
			sameSnapshot(t, c.Snapshot(), ref.Snapshot())
		})
	}
}

// TestIngestEventFile: an event file is an ingest stream. The bytes
// SaveEvents writes, copied unmodified into an ingest socket, fold
// bit-identically to recording the same log in-process.
func TestIngestEventFile(t *testing.T) {
	var log trace.Log
	for _, e := range batchEvents(rand.New(rand.NewSource(31)), 10000, 6, false) {
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.liwp")
	if err := tracefmt.SaveEvents(path, &log); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewCollector(Options{Window: 0.25})
	ref.RecordBatch(log.Events())

	c := NewCollector(Options{Window: 0.25})
	srv := NewIngestServer(c, IngestOptions{})
	sock := filepath.Join(dir, "ingest.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	// Close discards frames the server has not read yet: wait until every
	// event is decoded first.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Events() < uint64(log.Len()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Events(); got != uint64(log.Len()) {
		t.Fatalf("server decoded %d events, want %d", got, log.Len())
	}
	sameSnapshot(t, c.Snapshot(), ref.Snapshot())
}

// TestIngestDropOnFull: in drop mode a connection sending more than a
// ring of events while the folder is parked loses the overflow but never
// blocks the socket, and the losses are counted.
func TestIngestDropOnFull(t *testing.T) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{DropOnFull: true})
	defer srv.Close()
	// Park the folder until the test returns: nothing drains the ring.
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	sock := filepath.Join(t.TempDir(), "drop.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	cl, err := DialIngest("unix:"+sock, ClientOptions{Batch: 512})
	if err != nil {
		t.Fatal(err)
	}
	events := batchEvents(rand.New(rand.NewSource(4)), DefaultIngestRing+4096, 2, false)
	cl.RecordBatch(events)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// The server counts a batch as decoded before its ring drops: wait for
	// the handler to see EOF and exit, which settles both counters.
	deadline := time.Now().Add(5 * time.Second)
	for (srv.Events() < uint64(len(events)) || srv.connsActive.Load() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Events(); got != uint64(len(events)) {
		t.Fatalf("server decoded %d events, want %d", got, len(events))
	}
	if got, want := srv.Dropped(), uint64(len(events)-DefaultIngestRing); got != want {
		t.Fatalf("%d ring-overflow drops with a parked folder, want %d", got, want)
	}
}

// TestIngestCorruptStream: garbage after a valid prefix terminates only
// that connection, counts a decode error, and keeps the prefix.
func TestIngestCorruptStream(t *testing.T) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{})
	defer srv.Close()
	sock := filepath.Join(t.TempDir(), "bad.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	cl, err := DialIngest("unix:"+sock, ClientOptions{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	good := batchEvents(rand.New(rand.NewSource(5)), 8, 1, false)
	cl.RecordBatch(good)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Shove raw junk down the same socket: a frame the decoder must
	// reject.
	if _, err := cl.conn.Write([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.decodeErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.decodeErrors.Load() != 1 {
		t.Fatalf("decode errors = %d, want 1", srv.decodeErrors.Load())
	}
	if got := c.Snapshot().Events; got != uint64(len(good)) {
		t.Fatalf("collector kept %d events, want the %d sent before the corruption", got, len(good))
	}
	_ = cl.Close()
}

// TestIngestManyConnections: concurrent clients over one listener all
// land, and closed connections fold their loss counters into the totals.
func TestIngestManyConnections(t *testing.T) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{})
	sock := filepath.Join(t.TempDir(), "many.sock")
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const perClient = 2000
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := DialIngest("unix:"+sock, ClientOptions{Batch: 128})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			events := batchEvents(rand.New(rand.NewSource(int64(i))), perClient, 4, false)
			for _, e := range events {
				cl.Record(e)
			}
			if err := cl.Close(); err != nil {
				t.Errorf("client %d close: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for c.Events() < clients*perClient && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Events; got != clients*perClient {
		t.Fatalf("collector folded %d events, want %d", got, clients*perClient)
	}
	if total := srv.connSeq.Load(); total != clients {
		t.Fatalf("accepted %d connections, want %d", total, clients)
	}
}

// TestIngestClientServerRestart pins what a client does when its
// collector restarts: it fails loudly and never reconnects. After the
// server closes and a new one listens on the same address, Record+Flush
// fails within a few flushes (over TCP the first write after the close
// may only draw the peer's reset), Err and Close report that error, later
// Records return at once, and the new server hears nothing from the old
// client.
func TestIngestClientServerRestart(t *testing.T) {
	for _, spec := range ingestSpecs(t) {
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			c := NewCollector(Options{})
			srv := NewIngestServer(c, IngestOptions{})
			addr, err := srv.Listen(spec)
			if err != nil {
				t.Fatalf("listen %s: %v", spec, err)
			}
			if strings.HasPrefix(spec, "tcp:") {
				spec = "tcp:" + addr.String() // resolve the :0 port
			}
			cl, err := DialIngest(spec, ClientOptions{FlushInterval: -1})
			if err != nil {
				t.Fatalf("dial %s: %v", spec, err)
			}
			e := trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1}
			cl.Record(e)
			if err := cl.Flush(); err != nil {
				t.Fatalf("flush before the restart: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for c.Events() < 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("closing the first server: %v", err)
			}
			if got := c.Snapshot().Events; got != 1 {
				t.Fatalf("first server folded %d events, want 1", got)
			}

			c2 := NewCollector(Options{})
			srv2 := NewIngestServer(c2, IngestOptions{})
			if _, err := srv2.Listen(spec); err != nil {
				t.Fatalf("relisten %s: %v", spec, err)
			}
			defer srv2.Close()

			var failed error
			for flushes := 0; flushes < 50 && failed == nil; flushes++ {
				cl.Record(e)
				if failed = cl.Flush(); failed == nil {
					time.Sleep(10 * time.Millisecond)
				}
			}
			if failed == nil {
				t.Fatal("50 flushes after the restart all succeeded")
			}
			if err := cl.Err(); !errors.Is(err, failed) {
				t.Fatalf("Err() = %v, want the flush error %v", err, failed)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 10*1024; i++ {
					cl.Record(e)
				}
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Record blocked after the stream failed")
			}
			if err := cl.Close(); !errors.Is(err, failed) {
				t.Fatalf("Close() = %v, want the flush error %v", err, failed)
			}
			if err := srv2.Close(); err != nil {
				t.Fatalf("closing the second server: %v", err)
			}
			if got := srv2.Events(); got != 0 {
				t.Fatalf("new server decoded %d events from the old client, want 0", got)
			}
			if got := srv2.connSeq.Load(); got != 0 {
				t.Fatalf("new server accepted %d connections, want 0", got)
			}
		})
	}
}

// TestParseIngestSpec covers the spec syntax and its errors.
func TestParseIngestSpec(t *testing.T) {
	if n, a, err := ParseIngestSpec("unix:/tmp/x.sock"); err != nil || n != "unix" || a != "/tmp/x.sock" {
		t.Fatalf("unix spec: %q %q %v", n, a, err)
	}
	if n, a, err := ParseIngestSpec("tcp:127.0.0.1:9999"); err != nil || n != "tcp" || a != "127.0.0.1:9999" {
		t.Fatalf("tcp spec: %q %q %v", n, a, err)
	}
	if _, _, err := ParseIngestSpec("udp:1.2.3.4:1"); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := DialIngest("bogus", ClientOptions{}); err == nil {
		t.Fatal("bogus dial spec accepted")
	}
}

// TestIngestHostileEvents: a wire peer is untrusted, and the decoder
// reconstructs ranks and timestamps from peer-controlled bytes. An
// absurd rank (which would force the fold to grow per-rank state to
// 2^50 slots — a remote OOM) and NaN timestamps (which would poison the
// Welford accumulators permanently) must be dropped and counted like any
// other malformed event, while the rest of the stream keeps folding.
func TestIngestHostileEvents(t *testing.T) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{})
	addr, err := srv.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialIngest("tcp:"+addr.String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Record(trace.Event{Rank: 1 << 50, Region: "r", Activity: "a", Start: 0, End: 1})
	cl.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: math.NaN(), End: 1})
	cl.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0, End: math.NaN()})
	cl.Record(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: 0.5, End: 1})
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Events()+c.Dropped() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Events != 1 || snap.Dropped != 3 {
		t.Fatalf("events=%d dropped=%d, want 1 and 3", snap.Events, snap.Dropped)
	}
	if snap.Cube.NumProcs() != 1 {
		t.Errorf("hostile rank grew the cube to %d procs", snap.Cube.NumProcs())
	}
	if got := snap.Cube.RegionsTotal(); got != 0.5 {
		t.Errorf("NaN leaked into the cube: total = %g, want 0.5", got)
	}
}

// TestIngestHandleAfterClose: a connection accepted just before Close
// swept the registry must be dropped, not registered — a late
// registration would leave a conn nothing ever closes, hanging
// connWG.Wait (and so Close) until the remote peer went away.
func TestIngestHandleAfterClose(t *testing.T) {
	c := NewCollector(Options{})
	srv := NewIngestServer(c, IngestOptions{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	if ic := srv.register(server); ic != nil {
		t.Fatalf("connection registered after Close: %+v", ic)
	}
	// The peer (client side) never sends and never closes: the refused
	// connection must be closed on the server side, not left open.
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused connection not closed: read err %v", err)
	}
}

// TestIngestCloseRacesAccept: connections dialed while Close runs must
// either be served and closed with the server or dropped at accept — the
// accept loop must never grow connWG while Close waits on it (a
// WaitGroup-reuse panic) or leave a handler running after Close returns.
// Run under -race; the goroutine count must return to its baseline.
func TestIngestCloseRacesAccept(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		srv := NewIngestServer(NewCollector(Options{}), IngestOptions{})
		addr, err := srv.Listen("tcp:127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var mu sync.Mutex
		var clients []net.Conn
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", addr.String())
					if err != nil {
						continue
					}
					mu.Lock()
					clients = append(clients, conn)
					mu.Unlock()
				}
			}()
		}
		// Let some connections land, then close in the middle of the dial
		// storm.
		deadline := time.Now().Add(5 * time.Second)
		for srv.connSeq.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		dialers.Wait()
		for _, conn := range clients {
			_ = conn.Close()
		}
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open != 0 {
			t.Fatalf("round %d: %d connections still registered after Close", round, open)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the Close/accept races, baseline %d", n, base)
	}
}

// TestIngestListenUnixPath: Listen unlinks a leftover socket at a unix
// path, so a daemon restarted after a crash rebinds, but it never deletes
// anything else. A regular file at the path survives byte-identical and
// the listen fails.
func TestIngestListenUnixPath(t *testing.T) {
	dir := t.TempDir()
	srv := NewIngestServer(NewCollector(Options{}), IngestOptions{})
	defer srv.Close()

	file := filepath.Join(dir, "data")
	want := []byte("not a socket\n")
	if err := os.WriteFile(file, want, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("unix:" + file); err == nil {
		t.Error("listen over a regular file succeeded")
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != string(want) {
		t.Errorf("regular file after listen: %q, %v; want %q intact", got, err, want)
	}

	sock := filepath.Join(dir, "stale.sock")
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: sock, Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	ln.SetUnlinkOnClose(false) // a crashed daemon leaves its socket inode behind
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(sock); err != nil {
		t.Fatalf("stale socket not left behind: %v", err)
	}
	if _, err := srv.Listen("unix:" + sock); err != nil {
		t.Errorf("stale socket not rebound: %v", err)
	}
}
