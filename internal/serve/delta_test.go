package serve

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// deltaCollector returns a collector with a windowed event history and a
// handler server mounting /delta over it.
func deltaCollector(t *testing.T) (*monitor.Collector, *httptest.Server) {
	t.Helper()
	c := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range ingestEvents(rand.New(rand.NewSource(11)), 200, 4) {
		c.Record(e)
	}
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)
	return c, srv
}

// getDelta fetches /delta with an optional since value and returns the
// response; the caller owns the body.
func getDelta(t *testing.T, url, since string) *http.Response {
	t.Helper()
	u := url + "/delta"
	if since != "" {
		u += "?since=" + since
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sinceOf turns a snapshot ETag into the ?since= value (the tag without
// its quotes).
func sinceOf(etag string) string { return strings.Trim(etag, `"`) }

// stateEquals checks that a decoded transfer state matches a snapshot.
func stateEquals(t *testing.T, state *tracefmt.DeltaState, snap *monitor.Snapshot) {
	t.Helper()
	if state.Boot != snap.Boot || state.Gen != snap.Gen {
		t.Fatalf("identity (%x,%d), want (%x,%d)", state.Boot, state.Gen, snap.Boot, snap.Gen)
	}
	if (state.Cube == nil) != (snap.Cube == nil) {
		t.Fatalf("cube nil = %v, want %v", state.Cube == nil, snap.Cube == nil)
	}
	if state.Cube != nil && !state.Cube.EqualWithin(snap.Cube, 0) {
		t.Fatal("decoded cube differs from the snapshot cube")
	}
	if !reflect.DeepEqual(state.Series, snap.Series) {
		t.Fatalf("decoded series differs:\n got %+v\nwant %+v", state.Series, snap.Series)
	}
}

// TestDeltaEndpoint covers the /delta state machine against a live
// collector: full document for a cold client, 304 for a current one,
// a real delta for a retained generation (it must refuse to decode
// without its base — proof it is not a full document in disguise), and
// full-document fallbacks for unknown generations and foreign boot
// nonces.
func TestDeltaEndpoint(t *testing.T) {
	c, srv := deltaCollector(t)
	snap1 := c.Snapshot()

	// Cold client: full document, decodable without any base.
	resp := getDelta(t, srv.URL, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold GET /delta: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != DeltaContentType {
		t.Fatalf("content type %q, want %q", ct, DeltaContentType)
	}
	if got := resp.Header.Get("ETag"); got != snap1.ETag() {
		t.Fatalf("ETag %q, want %q", got, snap1.ETag())
	}
	state1, err := tracefmt.DecodeSnapshot(body, nil)
	if err != nil {
		t.Fatalf("decoding full document: %v", err)
	}
	stateEquals(t, state1, snap1)

	// Current client: 304, no body.
	resp = getDelta(t, srv.URL, sinceOf(snap1.ETag()))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("current GET /delta: %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != snap1.ETag() {
		t.Fatalf("304 ETag %q, want %q", got, snap1.ETag())
	}

	// A malformed ?since= — the current tag with trailing bytes — counts
	// as a missing one: a full document, never a 304.
	resp = getDelta(t, srv.URL, sinceOf(snap1.ETag())+"junk")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed ?since= GET /delta: %d, want 200", resp.StatusCode)
	}
	if state, err := tracefmt.DecodeSnapshot(body, nil); err != nil {
		t.Fatalf("malformed ?since= response is not a full document: %v", err)
	} else {
		stateEquals(t, state, snap1)
	}

	// Advance the collector one generation and ask for the diff.
	c.Record(trace.Event{Rank: 1, Region: "halo", Activity: "collective", Start: 50, End: 51})
	snap2 := c.Snapshot()
	if snap2.Gen <= snap1.Gen {
		t.Fatal("recording did not advance the fold generation")
	}
	resp = getDelta(t, srv.URL, sinceOf(snap1.ETag()))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lagging GET /delta: %d", resp.StatusCode)
	}
	// A true delta cannot decode without its base...
	if _, err := tracefmt.DecodeSnapshot(body, nil); !errors.Is(err, tracefmt.ErrDeltaBase) {
		t.Fatalf("delta decoded without a base (err=%v): server sent a full document", err)
	}
	// ...and applied to the base it reproduces the current snapshot.
	state2, err := tracefmt.DecodeSnapshot(body, state1)
	if err != nil {
		t.Fatalf("applying delta: %v", err)
	}
	stateEquals(t, state2, snap2)

	// Unknown generation: full-document fallback.
	resp = getDelta(t, srv.URL, fmt.Sprintf("b%x-g%d", snap2.Boot, snap2.Gen+100))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if state, err := tracefmt.DecodeSnapshot(body, nil); err != nil {
		t.Fatalf("unknown-gen response is not a full document: %v", err)
	} else {
		stateEquals(t, state, snap2)
	}

	// Foreign boot nonce (a client that scraped a previous incarnation):
	// full-document fallback, never a delta across boots.
	resp = getDelta(t, srv.URL, fmt.Sprintf("b%x-g%d", snap2.Boot+1, snap2.Gen))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if state, err := tracefmt.DecodeSnapshot(body, nil); err != nil {
		t.Fatalf("foreign-boot response is not a full document: %v", err)
	} else {
		stateEquals(t, state, snap2)
	}
}

// TestDeltaBodyIsCubeFile: a full /delta body saved to disk is a cube
// file that OpenCube reads back as the snapshot's cube. A delta body and
// a body without a cube are refused as corrupt.
func TestDeltaBodyIsCubeFile(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.5})
	srv := httptest.NewServer(Mux(c))
	defer srv.Close()
	dir := t.TempDir()
	save := func(name, since string) string {
		t.Helper()
		resp := getDelta(t, srv.URL, since)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /delta?since=%s: %d, %v", since, resp.StatusCode, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	empty := save("empty.lifp", "")
	if _, err := tracefmt.OpenCube(empty); !errors.Is(err, tracefmt.ErrCorrupt) {
		t.Errorf("body without a cube: err = %v, want ErrCorrupt", err)
	}

	for _, e := range ingestEvents(rand.New(rand.NewSource(12)), 200, 4) {
		c.Record(e)
	}
	snap := c.Snapshot()
	full := save("x.lifp", "")
	cube, err := tracefmt.OpenCube(full)
	if err != nil {
		t.Fatalf("opening a full /delta body: %v", err)
	}
	if !cube.EqualWithin(snap.Cube, 0) {
		t.Error("cube file differs from the snapshot cube")
	}

	c.Record(trace.Event{Rank: 1, Region: "halo", Activity: "collective", Start: 50, End: 51})
	delta := save("delta.lifp", sinceOf(snap.ETag()))
	if _, err := tracefmt.OpenCube(delta); !errors.Is(err, tracefmt.ErrCorrupt) || !errors.Is(err, tracefmt.ErrDeltaBase) {
		t.Errorf("delta body: err = %v, want ErrCorrupt and ErrDeltaBase", err)
	}
}

// bootlessSource serves hand-built snapshots without a boot nonce.
type bootlessSource struct{ snap *monitor.Snapshot }

func (s bootlessSource) Snapshot() *monitor.Snapshot { return s.snap }

// TestDeltaEndpointBootless: a source without a boot nonce cannot be
// identified across requests, so every response is a complete document.
func TestDeltaEndpointBootless(t *testing.T) {
	cube, err := trace.NewCube([]string{"r"}, []string{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.Set(0, 0, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	src := bootlessSource{snap: &monitor.Snapshot{Cube: cube, Gen: 3}}
	srv := httptest.NewServer(NewDeltaServer(src))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "?since=b0-g3")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bootless GET: %d", resp.StatusCode)
		}
		state, err := tracefmt.DecodeSnapshot(body, nil)
		if err != nil {
			t.Fatalf("bootless response is not a full document: %v", err)
		}
		if !state.Cube.EqualWithin(cube, 0) {
			t.Fatal("bootless full document lost the cube")
		}
	}
}

// TestDeltaEndpointConcurrent hammers /delta from many clients while the
// collector keeps folding: each client tracks its own acked generation
// (so it sees a mix of 304s, deltas and fulls depending on how far it
// lags) and applies every document to its local state. At the end, every
// client resyncs once more and must hold exactly the server's final
// snapshot — under -race this is also the locking test for the shared
// retain ring and frame memo.
func TestDeltaEndpointConcurrent(t *testing.T) {
	c, srv := deltaCollector(t)

	const clients = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	states := make([]*tracefmt.DeltaState, clients)

	// Writer: keep advancing the fold while the scrapers run — paced, so
	// the series stays small and scrapers see a mix of lags rather than
	// an endless stream of giant documents.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		at := 100.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Record(trace.Event{Rank: 2, Region: "loop 1", Activity: "computation", Start: at, End: at + 0.3})
			at += 0.3
			time.Sleep(200 * time.Microsecond)
		}
	}()

	scrape := func(state *tracefmt.DeltaState) (*tracefmt.DeltaState, error) {
		since := ""
		if state != nil {
			since = fmt.Sprintf("b%x-g%d", state.Boot, state.Gen)
		}
		u := srv.URL + "/delta"
		if since != "" {
			u += "?since=" + since
		}
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusNotModified:
			return state, nil
		case http.StatusOK:
			next, err := tracefmt.DecodeSnapshot(body, state)
			if errors.Is(err, tracefmt.ErrDeltaBase) {
				return nil, fmt.Errorf("server sent a delta for a base we did not ack (since=%s)", since)
			}
			return next, err
		default:
			return nil, fmt.Errorf("GET /delta: %d", resp.StatusCode)
		}
	}

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var state *tracefmt.DeltaState
			var err error
			for r := 0; r < rounds; r++ {
				if state, err = scrape(state); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", i, r, err)
					return
				}
			}
			states[i] = state
		}(i)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The fold is quiet now: one more scrape per client must converge
	// every one of them on the server's final snapshot.
	final := c.Snapshot()
	for i := range states {
		state, err := scrape(states[i])
		if err != nil {
			t.Fatalf("client %d resync: %v", i, err)
		}
		stateEquals(t, state, final)
	}
}
