package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"loadimb/internal/diagnose"
	"loadimb/internal/majorize"
	"loadimb/internal/monitor"
	"loadimb/internal/temporal"
)

// sourceFunc adapts a function to a Source.
type sourceFunc func() *monitor.Snapshot

func (f sourceFunc) Snapshot() *monitor.Snapshot { return f() }

// timelineWidth fetches /timeline.json and returns its echoed window
// width and the index of its first window.
func timelineWidth(url string) (width float64, first int, err error) {
	resp, err := testClient.Get(url + "/timeline.json")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var p timelinePayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return 0, 0, err
	}
	if len(p.Windows) == 0 {
		return 0, 0, fmt.Errorf("no windows in %+v", p)
	}
	return p.Window, p.Windows[0].Index, nil
}

// TestTimelineEchoesCurrentWidth: without a configured width (the
// federator mounts Mux without WithWindow) /timeline.json echoes the width
// of the snapshot it serves, never one an earlier request saw, and
// concurrent requests share no per-request state (run under -race). Each
// test snapshot carries its width as its first window's index, so a
// response can be checked against the snapshot it was built from.
func TestTimelineEchoesCurrentWidth(t *testing.T) {
	snapOf := func(width float64, gen uint64) *monitor.Snapshot {
		return &monitor.Snapshot{
			Series:  &temporal.Series{Window: width, Procs: 1},
			Windows: []temporal.WindowStat{{Index: int(width)}},
			Boot:    1,
			Gen:     gen,
		}
	}

	var cur atomic.Pointer[monitor.Snapshot]
	cur.Store(snapOf(2, 1))
	srv := httptest.NewServer(Mux(sourceFunc(cur.Load)))
	defer srv.Close()
	for gen, width := range []float64{2, 1} {
		cur.Store(snapOf(width, uint64(gen+1)))
		got, _, err := timelineWidth(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if got != width {
			t.Errorf("/timeline.json echoed width %g, series width %g", got, width)
		}
	}

	// Concurrent requests over snapshots alternating between the widths,
	// each a new generation, so the per-generation encoding cache is
	// exercised concurrently too.
	var calls atomic.Uint64
	srv2 := httptest.NewServer(Mux(sourceFunc(func() *monitor.Snapshot {
		n := calls.Add(1)
		return snapOf(float64(1+n%2), n)
	})))
	defer srv2.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				width, first, err := timelineWidth(srv2.URL)
				if err != nil {
					t.Error(err)
					return
				}
				if width != float64(first) {
					t.Errorf("/timeline.json echoed width %g for a series of width %d", width, first)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDocCacheEncodesOncePerSnapshot: a cached endpoint encodes its
// document once per snapshot, builds the gzip body on the first gzip
// request only, and re-encodes for a new snapshot.
func TestDocCacheEncodesOncePerSnapshot(t *testing.T) {
	var cache docCache
	encodes := 0
	serveDoc := func(snap *monitor.Snapshot, v int, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/doc.json", nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		rec := httptest.NewRecorder()
		cache.write(rec, req, snap, func() any {
			encodes++
			return map[string]int{"v": v}
		})
		return rec
	}
	wantBody := func(v int) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, httptest.NewRequest("GET", "/doc.json", nil), map[string]int{"v": v})
		return rec.Body.String()
	}

	gen1 := &monitor.Snapshot{Boot: 1, Gen: 1}
	for _, accept := range []string{"", "", "gzip", "gzip", ""} {
		rec := serveDoc(gen1, 1, accept)
		if got := bodyOf(t, rec); got != wantBody(1) {
			t.Fatalf("Accept-Encoding %q: body %q, want %q", accept, got, wantBody(1))
		}
	}
	if encodes != 1 {
		t.Fatalf("%d encodings for one snapshot, want 1", encodes)
	}
	gen2 := &monitor.Snapshot{Boot: 1, Gen: 2}
	if got := bodyOf(t, serveDoc(gen2, 2, "gzip")); got != wantBody(2) {
		t.Fatalf("new generation served %q, want %q", got, wantBody(2))
	}
	if encodes != 2 {
		t.Fatalf("%d encodings after a new generation, want 2", encodes)
	}
}

// bodyOf returns the response body, gunzipped when it was gzip-encoded,
// after checking the JSON response headers.
func bodyOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if v := rec.Header().Get("Vary"); v != "Accept-Encoding" {
		t.Fatalf("Vary %q", v)
	}
	if rec.Header().Get("Content-Encoding") != "gzip" {
		return rec.Body.String()
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCachedEndpointsMatchWriteJSON: over several generations of a live
// collector, the identity and gunzipped bodies of the cached endpoints
// equal writeJSON's output for the same snapshot content, with the
// diagnosis computed statelessly and /timeline.json assembled from its
// per-window pieces, and every new generation is re-encoded.
func TestCachedEndpointsMatchWriteJSON(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.5, WindowCap: 8})
	live := NewHandler(c)
	rng := rand.New(rand.NewSource(11))
	prev := map[string]string{}
	for gen := 0; gen < 4; gen++ {
		for _, e := range ingestEvents(rng, 200, 6) {
			e.Start += float64(gen) * 40
			e.End += float64(gen) * 40
			c.Record(e)
		}
		snap := c.Snapshot()
		for _, path := range []string{"/timeline.json", "/phases.json", "/diagnose.json", "/lorenz.json"} {
			ref := httptest.NewRecorder()
			writeJSON(ref, httptest.NewRequest("GET", path, nil), referenceDoc(snap, c.Window(), path))
			want := ref.Body.String()
			for _, accept := range []string{"", "gzip", "", "gzip"} {
				if got := bodyOf(t, serveRec(live, path, accept)); got != want {
					t.Fatalf("generation %d %s (Accept-Encoding %q):\ngot  %s\nwant %s", gen, path, accept, got, want)
				}
			}
			if path == "/timeline.json" && want == prev[path] {
				t.Fatalf("generation %d: %s did not change", gen, path)
			}
			prev[path] = want
		}
	}
}

// referenceDoc builds the document path serves for snap, at the
// configured window width, without any cache: the diagnosis is the
// stateless one.
func referenceDoc(snap *monitor.Snapshot, window float64, path string) any {
	switch path {
	case "/timeline.json":
		p := timelinePayload{Window: window, Windows: snap.Windows}
		if snap.Series.CoarseWindow > 0 {
			p.CoarseWindow = snap.Series.CoarseWindow
			p.RingStart = snap.Series.RingStart
			p.Coarse = snap.Coarse
		}
		return p
	case "/lorenz.json":
		totals := snap.ProcTotals()
		points, err := majorize.Lorenz(totals)
		if err != nil {
			panic(err)
		}
		return lorenzPayload{Procs: len(totals), Points: points, Gini: temporal.GiniOf(totals)}
	case "/phases.json":
		p := phasesPayload{Window: snap.Series.Window, Phases: snap.Phases}
		if n := len(snap.Phases); n > 0 {
			p.Current = &snap.Phases[n-1]
			p.Changes = n - 1
		}
		return p
	}
	phases := make([]temporal.Phase, len(snap.Phases))
	for i, ps := range snap.Phases {
		phases[i] = ps.Phase()
	}
	return diagnose.Diagnose(snap.Series, phases, diagnose.Options{RankLabels: snap.RankLabels})
}

// serveRec serves one GET of path through h.
func serveRec(h http.Handler, path, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	if accept != "" {
		req.Header.Set("Accept-Encoding", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTimelinePiecesMatchEncodeJSON: over generations of window summaries
// that keep, change, drop and append windows, the per-window encoding
// cache writes exactly encodeJSON's bytes, including for nil and empty
// lists, null indices, negative zeros, HTML-escaped names, and values
// JSON cannot carry (no bytes at all, and an error from both).
func TestTimelinePiecesMatchEncodeJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := func(v float64) *float64 { return &v }
	stat := func(idx int) temporal.WindowStat {
		ws := temporal.WindowStat{
			Index:  idx,
			Start:  float64(idx) * 0.5,
			End:    float64(idx+1) * 0.5,
			Events: rng.Intn(50),
			Busy:   rng.Float64() * 3,
			Gini:   rng.Float64() / 2,
		}
		switch rng.Intn(6) {
		case 0: // an all-idle window: null index
		case 1:
			ws.ID, ws.Busy, ws.Gini = id(0), math.Copysign(0, -1), math.Copysign(0, -1)
		case 2:
			ws.ID, ws.Dominant = id(rng.Float64()), "<p2p & co>"
		default:
			ws.ID = id(rng.ExpFloat64() * 1e-7)
		}
		return ws
	}
	var pieces timelinePieces
	var ring, coarse []temporal.WindowStat
	for gen := 0; gen < 60; gen++ {
		// Keep most windows (sharing the summaries), rewrite a few, drop
		// the oldest now and then, append a new one.
		next := make([]temporal.WindowStat, 0, len(ring)+1)
		for i, ws := range ring {
			switch {
			case i == 0 && rng.Intn(4) == 0:
				continue
			case rng.Intn(8) == 0:
				ws = stat(ws.Index)
			}
			next = append(next, ws)
		}
		next = append(next, stat(gen*2))
		ring = next
		if gen%10 == 9 {
			coarse = append(coarse, stat(-gen))
		}
		p := timelinePayload{Window: 0.5, Windows: ring}
		switch gen % 4 {
		case 1:
			p.Windows = nil
		case 2:
			p.Windows = []temporal.WindowStat{}
		}
		if len(coarse) > 0 && gen%3 != 0 {
			p.CoarseWindow, p.RingStart, p.Coarse = 2, ring[0].Index, coarse
		}
		if gen == 57 {
			p.Windows = append([]temporal.WindowStat(nil), ring...)
			p.Windows[len(ring)-1].Busy = math.NaN()
		}
		if gen == 58 {
			p.Window = math.Inf(1)
		}
		var want, got bytes.Buffer
		wantErr := encodeJSON(&want, p)
		gotErr := pieces.encode(&got, &p)
		if got.String() != want.String() || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("generation %d:\ngot  %s (err %v)\nwant %s (err %v)", gen, got.String(), gotErr, want.String(), wantErr)
		}
	}
}
