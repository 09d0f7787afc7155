package serve

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"testing"

	"loadimb/internal/monitor"
)

// TestGzipNegotiation: JSON endpoints compress exactly when the client
// asks — Accept-Encoding: gzip gets a gzip body (that decodes to the
// same document a plain request gets), an absent or q=0 gzip preference
// gets identity, and every response varies on Accept-Encoding so caches
// never cross the streams.
func TestGzipNegotiation(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range ingestEvents(rand.New(rand.NewSource(7)), 300, 4) {
		c.Record(e)
	}
	h := NewHandler(c)

	get := func(accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/cube.json", nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	plain := get("")
	if enc := plain.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("uninvited Content-Encoding %q", enc)
	}
	if vary := plain.Header().Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want Accept-Encoding", vary)
	}

	zipped := get("gzip")
	if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if zipped.Body.Len() >= plain.Body.Len() {
		t.Fatalf("gzip body (%d bytes) not smaller than identity (%d bytes)",
			zipped.Body.Len(), plain.Body.Len())
	}
	zr, err := gzip.NewReader(zipped.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(unzipped, &a); err != nil {
		t.Fatalf("gzip body is not the JSON document: %v", err)
	}
	if err := json.Unmarshal(plain.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("gzip and identity responses decode to different documents")
	}

	// An explicit zero quality, in any spelling, is a refusal, not a
	// request.
	for _, accept := range []string{"gzip;q=0", "gzip;q=0.00", "gzip;q=0.000", "gzip;Q=0"} {
		refused := get(accept)
		if enc := refused.Header().Get("Content-Encoding"); enc != "" {
			t.Errorf("gzip served despite %q (Content-Encoding %q)", accept, enc)
		}
	}
}
