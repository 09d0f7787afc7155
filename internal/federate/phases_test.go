package federate

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/temporal"
	"loadimb/internal/tracefmt"
)

// phasesDoc mirrors the /phases.json payload.
type phasesDoc struct {
	Window  float64                 `json:"window"`
	Current *temporal.PhaseSummary  `json:"current"`
	Changes int                     `json:"changes"`
	Phases  []temporal.PhaseSummary `json:"phases"`
}

// TestFederatedPhasesAgreeWithLivePath extends the federation agreement
// property to phase detection: the phases the federator serves over the
// merged window series must equal what one live collector folding every
// event (ranks offset per job) detects — the merge preserves busy
// vectors bit for bit, and both sides segment with temporal.Segment, so
// the whole chain is exact.
func TestFederatedPhasesAgreeWithLivePath(t *testing.T) {
	const window = 0.5
	jobs := []jobSpec{
		{name: "jobA", procs: 4, events: jobEvents(4, 0.5)},
		{name: "jobB", procs: 3, events: jobEvents(3, 1.25)},
		{name: "jobC", procs: 5, events: jobEvents(5, 0)},
	}
	var endpoints []Endpoint
	for _, job := range jobs {
		srv := startWindowedEndpoint(t, job, window)
		endpoints = append(endpoints, Endpoint{Name: job.name, URL: srv.URL})
	}
	f, err := New(Options{Endpoints: endpoints, Client: testClient})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	fedSrv := httptest.NewServer(Handler(f))
	defer fedSrv.Close()

	var got phasesDoc
	getJSON(t, fedSrv.URL+"/phases.json", &got)
	if got.Window != window {
		t.Fatalf("federated window width = %g, want %g", got.Window, window)
	}
	if len(got.Phases) == 0 {
		t.Fatal("no federated phases")
	}

	oracle := monitor.NewCollector(monitor.Options{Window: window})
	offset := 0
	for _, job := range jobs {
		for _, e := range job.events {
			e.Rank += offset
			oracle.Record(e)
		}
		offset += job.procs
	}
	want := oracle.Snapshot().Phases

	gotJSON, err := json.Marshal(got.Phases)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("federated phases diverge from the live path.\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
}

// TestFederatedOverlongWindowsDegradeTimeline drives the Merge
// inconsistency error through the scrape path: an endpoint whose window
// series reports busy time on more ranks than its cube declares used to
// have that load silently clipped; now the merge fails and the federated
// timeline (and phases) degrade while the cube view stays correct.
func TestFederatedOverlongWindowsDegradeTimeline(t *testing.T) {
	good := jobSpec{name: "good", procs: 2, events: jobEvents(2, 0.5)}
	goodSrv := startWindowedEndpoint(t, good, 0.5)

	// The bad endpoint's cube declares 2 processors but its window series
	// declares 3 and carries nonzero busy time on the third rank. It
	// ships both in one LIFP full document on /delta.
	bad := monitor.NewCollector(monitor.Options{Window: 0.5})
	for _, e := range jobEvents(2, 0.3) {
		bad.Record(e)
	}
	badSnap := bad.Snapshot()
	badSeries := *badSnap.Series
	badSeries.Procs = 3
	badSeries.Windows = append([]temporal.WindowVector(nil), badSeries.Windows...)
	w0 := badSeries.Windows[0]
	w0.ProcSeconds = append(append([]float64(nil), w0.ProcSeconds...), 0.25)
	badSeries.Windows[0] = w0
	doc, err := tracefmt.EncodeSnapshotFull(&tracefmt.DeltaState{
		Boot: badSnap.Boot, Gen: badSnap.Gen, Cube: badSnap.Cube, Series: &badSeries,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/delta", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", serve.DeltaContentType)
		_, _ = w.Write(doc)
	})
	badSrv := httptest.NewServer(mux)
	t.Cleanup(badSrv.Close)

	var logged []string
	f, err := New(Options{
		Endpoints: []Endpoint{
			{Name: "good", URL: goodSrv.URL},
			{Name: "bad", URL: badSrv.URL},
		},
		Client: testClient,
		Logf:   func(format string, args ...any) { logged = append(logged, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeAll(context.Background())
	snap := f.Snapshot()
	if snap.Cube == nil {
		t.Fatal("federated cube missing: the merge error must not touch the cube view")
	}
	if snap.Series != nil || snap.Windows != nil || snap.Phases != nil {
		t.Errorf("inconsistent window series still produced a timeline: %+v", snap.Windows)
	}
	found := false
	for _, l := range logged {
		if l == "federate: merging window series: %v" {
			found = true
		}
	}
	if !found {
		t.Errorf("merge inconsistency was not logged: %q", logged)
	}
}
