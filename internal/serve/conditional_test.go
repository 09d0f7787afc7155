package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"loadimb/internal/monitor"
)

// TestConditionalGET: every JSON document endpoint, /lorenz.json included,
// stamps the snapshot's ETag and evaluates If-None-Match as RFC 9110
// section 13.1.2 does: a list of entity tags compared weakly, or "*". A
// tag the snapshot no longer carries gets the full document.
func TestConditionalGET(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range ingestEvents(rand.New(rand.NewSource(3)), 200, 4) {
		c.Record(e)
	}
	h := NewHandler(c)
	tag := c.Snapshot().ETag()
	stale := `"b1-g0"`
	cases := []struct {
		name   string
		fields []string
		want   int
	}{
		{"exact", []string{tag}, http.StatusNotModified},
		{"weak", []string{"W/" + tag}, http.StatusNotModified},
		{"list", []string{stale + ", " + tag}, http.StatusNotModified},
		{"list without spaces", []string{stale + "," + tag}, http.StatusNotModified},
		{"second field line", []string{stale, tag}, http.StatusNotModified},
		{"any", []string{"*"}, http.StatusNotModified},
		{"stale", []string{stale}, http.StatusOK},
		{"stale weak", []string{"W/" + stale}, http.StatusOK},
		{"unquoted", []string{tag[1 : len(tag)-1]}, http.StatusOK},
		{"dangling weak prefix", []string{"W/"}, http.StatusOK},
		{"unterminated", []string{`"b1`}, http.StatusOK},
	}
	for _, path := range []string{"/cube.json", "/lorenz.json", "/timeline.json", "/windows.json", "/phases.json", "/diagnose.json"} {
		for _, tc := range cases {
			req := httptest.NewRequest("GET", path, nil)
			for _, f := range tc.fields {
				req.Header.Add("If-None-Match", f)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s, If-None-Match %q: status %d, want %d", path, tc.fields, rec.Code, tc.want)
			}
			if got := rec.Header().Get("ETag"); got != tag {
				t.Errorf("%s, If-None-Match %q: ETag %q, want %q", path, tc.fields, got, tag)
			}
			if tc.want == http.StatusNotModified && rec.Body.Len() != 0 {
				t.Errorf("%s, If-None-Match %q: 304 with a %d-byte body", path, tc.fields, rec.Body.Len())
			}
		}
	}
}
