package federate

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// treeWindow is the window width every tier in the topology tests uses.
const treeWindow = 0.5

// oracleCollector folds every job's events into ONE collector exactly as
// the federation namespaces them — regions prefixed "job/", ranks offset
// by the preceding jobs' processor counts, jobs in listed order — and
// returns its snapshot: the all-events oracle every topology must match
// bit for bit.
func oracleCollector(t *testing.T, jobs []jobSpec) *monitor.Snapshot {
	t.Helper()
	c := monitor.NewCollector(monitor.Options{Window: treeWindow})
	offset := 0
	for _, job := range jobs {
		for _, e := range job.events {
			e.Rank += offset
			e.Region = job.name + "/" + e.Region
			c.Record(e)
		}
		offset += job.procs
	}
	return c.Snapshot()
}

// startLeaf serves one job through a windowed collector.
func startLeaf(t *testing.T, job jobSpec) *httptest.Server {
	t.Helper()
	c := monitor.NewCollector(monitor.Options{Window: treeWindow})
	for _, e := range job.events {
		c.Record(e)
	}
	return serveCollector(t, c)
}

func serveCollector(t *testing.T, c *monitor.Collector) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.NewHandler(c))
	t.Cleanup(srv.Close)
	return srv
}

// startFederator builds a federator over the endpoints, scrapes them
// once, and serves its exposition (including /delta) so a higher tier
// can scrape it like any collector.
func startFederator(t *testing.T, endpoints []Endpoint) (*Federator, *httptest.Server) {
	t.Helper()
	f, err := New(Options{
		Endpoints: endpoints,
		Timeout:   5 * time.Second,
		Client:    testClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	srv := httptest.NewServer(Handler(f))
	t.Cleanup(srv.Close)
	return f, srv
}

// cubeBitsEqual requires the two cubes to agree exactly: same axes in
// the same order, bit-identical cell values and program time.
func cubeBitsEqual(t *testing.T, topo string, got, want *trace.Cube) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: cube nil: got %v want %v", topo, got == nil, want == nil)
	}
	if !reflect.DeepEqual(got.Regions(), want.Regions()) {
		t.Fatalf("%s: regions %v, want %v", topo, got.Regions(), want.Regions())
	}
	if !reflect.DeepEqual(got.Activities(), want.Activities()) {
		t.Fatalf("%s: activities %v, want %v", topo, got.Activities(), want.Activities())
	}
	if got.NumProcs() != want.NumProcs() {
		t.Fatalf("%s: procs %d, want %d", topo, got.NumProcs(), want.NumProcs())
	}
	for i := 0; i < want.NumRegions(); i++ {
		for j := 0; j < want.NumActivities(); j++ {
			gv, _ := got.ProcTimes(i, j)
			wv, _ := want.ProcTimes(i, j)
			for p := range wv {
				if math.Float64bits(gv[p]) != math.Float64bits(wv[p]) {
					t.Fatalf("%s: cell (%d,%d,%d) = %v, want %v", topo, i, j, p, gv[p], wv[p])
				}
			}
		}
	}
	if math.Float64bits(got.ProgramTime()) != math.Float64bits(want.ProgramTime()) {
		t.Fatalf("%s: program time %v, want %v", topo, got.ProgramTime(), want.ProgramTime())
	}
}

// TestFederationTopologyProperty is the composition property: ANY
// federation topology over the same jobs — flat, 2-tier, unbalanced —
// yields a root cube and window series bit-identical to one oracle
// collector that folded every event itself. Higher tiers scrape lower
// federators as Raw endpoints (the lower tier already namespaced its
// regions and ranks), so re-aggregation must be the identity.
func TestFederationTopologyProperty(t *testing.T) {
	jobs := []jobSpec{
		{name: "job0", procs: 3},
		{name: "job1", procs: 4},
		{name: "job2", procs: 2},
	}
	skews := []float64{0.2, 0.65, 0}
	var leaves []*httptest.Server
	for i := range jobs {
		jobs[i].events = jobEvents(jobs[i].procs, skews[i])
		leaves = append(leaves, startLeaf(t, jobs[i]))
	}
	oracle := oracleCollector(t, jobs)
	if oracle.Cube == nil || oracle.Series == nil {
		t.Fatal("oracle collector has no cube or series")
	}

	check := func(topo string, root *Federator) {
		t.Helper()
		snap := root.Snapshot()
		cubeBitsEqual(t, topo, snap.Cube, oracle.Cube)
		if !reflect.DeepEqual(snap.Series, oracle.Series) {
			t.Fatalf("%s: root window series differs from the oracle:\n got %+v\nwant %+v",
				topo, snap.Series, oracle.Series)
		}
	}

	t.Run("flat", func(t *testing.T) {
		root, _ := startFederator(t, []Endpoint{
			{Name: "job0", URL: leaves[0].URL},
			{Name: "job1", URL: leaves[1].URL},
			{Name: "job2", URL: leaves[2].URL},
		})
		check("flat", root)
	})

	t.Run("two-tier", func(t *testing.T) {
		_, midA := startFederator(t, []Endpoint{
			{Name: "job0", URL: leaves[0].URL},
			{Name: "job1", URL: leaves[1].URL},
		})
		_, midB := startFederator(t, []Endpoint{
			{Name: "job2", URL: leaves[2].URL},
		})
		root, _ := startFederator(t, []Endpoint{
			{Name: "midA", URL: midA.URL, Raw: true},
			{Name: "midB", URL: midB.URL, Raw: true},
		})
		check("two-tier", root)
	})

	t.Run("unbalanced", func(t *testing.T) {
		// One leaf hangs directly off the root while its siblings sit
		// behind an intermediate federator.
		_, mid := startFederator(t, []Endpoint{
			{Name: "job1", URL: leaves[1].URL},
			{Name: "job2", URL: leaves[2].URL},
		})
		root, _ := startFederator(t, []Endpoint{
			{Name: "job0", URL: leaves[0].URL},
			{Name: "mid", URL: mid.URL, Raw: true},
		})
		check("unbalanced", root)
	})
}

// TestFederationTwoTierDelta: a federator's own /delta endpoint carries
// its merged state to a higher tier — the root's second scrape of an
// unchanged mid federator must ride the delta path (a 304, zero new
// bytes for the documents), and when a leaf below the mid moves, the
// update must propagate through both tiers intact.
func TestFederationTwoTierDelta(t *testing.T) {
	job := jobSpec{name: "job0", procs: 3, events: jobEvents(3, 0.4)}
	c := monitor.NewCollector(monitor.Options{Window: treeWindow})
	for _, e := range job.events {
		c.Record(e)
	}
	leaf := serveCollector(t, c)

	mid, midSrv := startFederator(t, []Endpoint{{Name: "job0", URL: leaf.URL}})
	root, _ := startFederator(t, []Endpoint{{Name: "mid", URL: midSrv.URL, Raw: true}})

	health := root.Health()
	if len(health) != 1 || !health[0].HasCube {
		t.Fatalf("root has no cube from the mid federator: %+v", health)
	}
	bytesAfterFirst := health[0].Bytes

	// Unchanged mid: the rescrape must cost a 304, not a document.
	ctx := context.Background()
	root.ScrapeAll(ctx)
	health = root.Health()
	if got := health[0].Bytes; got != bytesAfterFirst {
		t.Fatalf("rescrape of an unchanged federator moved %d bytes", got-bytesAfterFirst)
	}

	// A leaf event must propagate: leaf -> mid -> root.
	c.Record(trace.Event{Rank: 0, Region: "solve", Activity: "comp", Start: 10, End: 12})
	mid.ScrapeAll(ctx)
	root.ScrapeAll(ctx)
	snap := root.Snapshot()
	i, j, ok := -1, -1, false
	for ri, r := range snap.Cube.Regions() {
		if r == "job0/solve" {
			i = ri
		}
	}
	for ai, a := range snap.Cube.Activities() {
		if a == "comp" {
			j = ai
		}
	}
	ok = i >= 0 && j >= 0
	if !ok {
		t.Fatalf("root cube lost the leaf's axes: regions %v activities %v",
			snap.Cube.Regions(), snap.Cube.Activities())
	}
	tv, err := snap.Cube.ProcTimes(i, j)
	if err != nil {
		t.Fatal(err)
	}
	mv, merr := mid.Snapshot().Cube.ProcTimes(i, j)
	if merr != nil {
		t.Fatal(merr)
	}
	if math.Float64bits(tv[0]) != math.Float64bits(mv[0]) {
		t.Fatalf("leaf update did not propagate to the root: root %v, mid %v", tv[0], mv[0])
	}
	if tv[0] < 2 {
		t.Fatalf("root cell job0/solve/comp rank0 = %v, want the new 2s event included", tv[0])
	}
}
