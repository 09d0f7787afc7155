package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"loadimb/internal/monitor"
	"loadimb/internal/mpi"
	"loadimb/internal/temporal"
)

// TestNonFiniteWindowDisablesWindowing: a collector asked for a NaN or
// infinite window width runs unwindowed, exactly like one asked for 0:
// Window reports 0 and every window endpoint answers what the unwindowed
// collector's does — 503 "windowing disabled", or for /timeline.json a
// document with no windows — never 200 with an empty body.
func TestNonFiniteWindowDisablesWindowing(t *testing.T) {
	serveAll := func(width float64) (*monitor.Collector, map[string]*httptest.ResponseRecorder) {
		c := monitor.NewCollector(monitor.Options{Window: width, Activities: mpi.Activities()})
		runWorkloadInto(t, c)
		h := NewHandler(c)
		out := make(map[string]*httptest.ResponseRecorder)
		for _, path := range []string{"/timeline.json", "/phases.json", "/diagnose.json", "/windows.json"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			out[path] = rec
		}
		return c, out
	}
	_, want := serveAll(0)
	for path, rec := range want {
		wantCode := http.StatusServiceUnavailable
		if path == "/timeline.json" {
			wantCode = http.StatusOK
		}
		if rec.Code != wantCode || rec.Body.Len() == 0 {
			t.Fatalf("width 0: %s answered %d with %d bytes", path, rec.Code, rec.Body.Len())
		}
	}
	for _, width := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
		t.Run(fmt.Sprint(width), func(t *testing.T) {
			c, got := serveAll(width)
			if c.Window() != 0 {
				t.Errorf("Window() = %v, want 0", c.Window())
			}
			for path, rec := range got {
				if rec.Code != want[path].Code || rec.Body.String() != want[path].Body.String() {
					t.Errorf("%s answered %d %q, want %d %q", path, rec.Code, rec.Body.String(), want[path].Code, want[path].Body.String())
				}
			}
		})
	}
}

// snapSource serves one fixed snapshot.
type snapSource struct{ snap *monitor.Snapshot }

func (s snapSource) Snapshot() *monitor.Snapshot { return s.snap }

// TestEncodeFailureAnswers500: a document JSON cannot carry answers 500
// with no content coding and no ETag, whether or not the client asked
// for gzip, and a cached endpoint keeps no trace of the failure: the
// next document for the same snapshot is encoded and served.
func TestEncodeFailureAnswers500(t *testing.T) {
	checkFailed := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body.String())
		}
		if ce := rec.Header().Get("Content-Encoding"); ce != "" {
			t.Fatalf("Content-Encoding %q on a failed document", ce)
		}
		if tag := rec.Header().Get("ETag"); tag != "" {
			t.Fatalf("ETag %q on a failed document", tag)
		}
		if !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Fatalf("body %q does not name the encoding failure", rec.Body.String())
		}
	}
	request := func(path, accept string) *http.Request {
		req := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		return req
	}
	for _, accept := range []string{"", "gzip"} {
		t.Run("accept="+accept, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeJSON(rec, request("/doc.json", accept), map[string]float64{"v": math.NaN()})
			checkFailed(t, rec)

			var cache docCache
			snap := &monitor.Snapshot{Boot: 1, Gen: 1}
			encodes := 0
			serveDoc := func(v float64) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				cache.write(rec, request("/doc.json", accept), snap, func() any {
					encodes++
					return map[string]float64{"v": v}
				})
				return rec
			}
			checkFailed(t, serveDoc(math.Inf(1)))
			checkFailed(t, serveDoc(math.Inf(1)))
			if got := bodyOf(t, serveDoc(1)); got != "{\n  \"v\": 1\n}\n" {
				t.Fatalf("after a failure the cache served %q", got)
			}
			if encodes != 3 {
				t.Fatalf("%d encodings, want 3: a failed document must not be cached", encodes)
			}

			// The timeline's piecewise encoder fails the same way.
			bad := &monitor.Snapshot{Boot: 1, Gen: 2, Windows: []temporal.WindowStat{{Index: 0, End: 1, Busy: math.NaN()}}}
			rec = httptest.NewRecorder()
			Mux(snapSource{bad}).ServeHTTP(rec, request("/timeline.json", accept))
			checkFailed(t, rec)
		})
	}
}
