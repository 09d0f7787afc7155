package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"loadimb/internal/monitor"
)

type emptySource struct{}

func (emptySource) Snapshot() *monitor.Snapshot { return &monitor.Snapshot{} }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		// Two overlapping children covering [10, 50) between them.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50},
		// A child running past its parent's end counts up to the end only.
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild is covered by its own parent, not the root.
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 25},
		// A child nested wholly inside a sibling adds no coverage.
		{Name: "e", ID: 6, Parent: 1, Start: 12, End: 20},
		{Name: "leaf", ID: 7, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 30 - 10, 20, 40, 10, 8, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeSpans(t *testing.T) {
	spans := []span{
		{Name: "x", ID: 1, Start: 0, End: 10},
		{Name: "x", ID: 2, Start: 0, End: 30},
		{Name: "y", ID: 3, Parent: 2, Start: 5, End: 28},
	}
	stats := summarizeSpans(spans)
	if len(stats) != 2 || stats[0].Name != "y" || stats[1].Name != "x" {
		t.Fatalf("got %+v, want y then x by self time", stats)
	}
	x := stats[1]
	if x.Count != 2 || x.Total != 40 || x.Self != 17 || x.P50 != 10 || x.P99 != 30 {
		t.Fatalf("x: %+v", x)
	}
}

// TestSpanPropagation: a handler span is the child of the client span
// that caused it, and the snapshot source's span the child of the handler
// span, across the HTTP hop and through the source interface.
func TestSpanPropagation(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	src := &tracedSource{t: tr, src: emptySource{}, name: "monitor.snapshot"}
	srv := httptest.NewServer(src.handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		src.Snapshot()
	})))
	defer srv.Close()
	client := newClient()
	defer closeClient(client)

	o := tr.start("bench.request", spanRef{})
	if _, err := httpGet(withSpan(context.Background(), o.ref), client, srv.URL+"/metrics"); err != nil {
		t.Fatal(err)
	}
	tr.finish(o)
	byName := make(map[string]span)
	for _, s := range tr.recorded() {
		byName[s.Name] = s
	}
	req, handler, snap := byName["bench.request"], byName["serve.metrics"], byName["monitor.snapshot"]
	if handler.Parent != req.ID || snap.Parent != handler.ID {
		t.Fatalf("parents: handler %d (want %d), snapshot %d (want %d)", handler.Parent, req.ID, snap.Parent, handler.ID)
	}
	if req.Trace != handler.Trace || handler.Trace != snap.Trace {
		t.Fatalf("trace ids differ: %d %d %d", req.Trace, handler.Trace, snap.Trace)
	}
}
