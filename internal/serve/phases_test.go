package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"loadimb/internal/cfd"
	"loadimb/internal/monitor"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

func TestServerPhases(t *testing.T) {
	srv, c := newTestServer(t)
	runWorkloadInto(t, c)
	code, body, _ := get(t, srv.URL+"/phases.json")
	if code != http.StatusOK {
		t.Fatalf("/phases.json = %d", code)
	}
	var payload phasesPayload
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Window != 0.25 {
		t.Errorf("window = %g, want 0.25", payload.Window)
	}
	if len(payload.Phases) == 0 {
		t.Fatal("no phases detected on a finished workload")
	}
	if payload.Changes != len(payload.Phases)-1 {
		t.Errorf("changes = %d with %d phases", payload.Changes, len(payload.Phases))
	}
	if payload.Current == nil || !reflect.DeepEqual(*payload.Current, payload.Phases[len(payload.Phases)-1]) {
		t.Error("current is not the last phase")
	}
	prevEnd := payload.Phases[0].Start
	for i, ph := range payload.Phases {
		if ph.Start != prevEnd {
			t.Errorf("phase %d starts at %g, previous ended at %g", i, ph.Start, prevEnd)
		}
		prevEnd = ph.End
		switch ph.Label {
		case temporal.LabelIdle, temporal.LabelQuiet, temporal.LabelHot:
		default:
			t.Errorf("phase %d label = %q", i, ph.Label)
		}
		if ph.Label != temporal.LabelIdle && ph.ID == nil {
			t.Errorf("busy phase %d has null ID", i)
		}
	}
}

func TestServerPhasesWindowingDisabled(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{})
	srv := httptest.NewServer(PhasesHandler(c))
	t.Cleanup(srv.Close)
	if code, _, _ := get(t, srv.URL); code != http.StatusServiceUnavailable {
		t.Errorf("/phases.json without windowing = %d, want 503", code)
	}
}

// TestPhasesMatchOfflineCfd is the tentpole acceptance property: the
// phases /phases.json reports on a live cfdsim run equal the phases the
// offline pipeline (`imba -phases` over the saved trace: FoldLog +
// Segment with the automatic penalty) finds — same boundaries, same
// labels. The live path folds events in drain order rather than log
// order, so float sums can differ in the last bits; boundaries and
// labels are discrete and must match exactly, the means to close
// tolerance.
func TestPhasesMatchOfflineCfd(t *testing.T) {
	const window = 1.0
	c := monitor.NewCollector(monitor.Options{Window: window})
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)

	cfg := cfd.Defaults()
	cfg.Procs = 8
	cfg.GridX = 128
	cfg.GridY = 128
	cfg.Iterations = 8
	cfg.Sink = c
	res, err := cfd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	code, body, _ := get(t, srv.URL+"/phases.json")
	if code != http.StatusOK {
		t.Fatalf("/phases.json = %d", code)
	}
	var payload phasesPayload
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}

	ser, err := temporal.FoldLog(res.Log, temporal.Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	want := temporal.Segment(ser.Stats(), 0)
	if len(payload.Phases) != len(want) {
		t.Fatalf("live %d phases, offline %d:\nlive    %+v\noffline %+v",
			len(payload.Phases), len(want), payload.Phases, want)
	}
	for i, got := range payload.Phases {
		w := want[i]
		if got.FirstWindow != w.FirstWindow || got.LastWindow != w.LastWindow {
			t.Errorf("phase %d = windows [%d, %d], offline [%d, %d]",
				i, got.FirstWindow, got.LastWindow, w.FirstWindow, w.LastWindow)
		}
		if got.Label != w.Label {
			t.Errorf("phase %d label = %q, offline %q", i, got.Label, w.Label)
		}
		if diff := got.MeanID - w.MeanID; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("phase %d mean ID = %g, offline %g", i, got.MeanID, w.MeanID)
		}
	}
}

// TestPhasesIncrementalMatchesOffline drives the collector through many
// snapshot cycles and checks every intermediate segmentation against a
// fresh offline Segment of the same trajectory.
func TestPhasesIncrementalMatchesOffline(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 0.5})
	var lg trace.Log
	record := func(e trace.Event) {
		c.Record(e)
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// A run with a quiet stretch, a hot stretch, an idle gap and a
	// recovery, recorded in small bursts with a snapshot after each.
	step := 0
	burst := func(loads ...float64) {
		start := float64(step) * 0.5
		for r, d := range loads {
			if d > 0 {
				record(trace.Event{Rank: r, Region: "r", Activity: "a",
					Start: start, End: start + d})
			}
		}
		step++
		snap := c.Snapshot()
		ser, err := temporal.FoldLog(&lg, temporal.Options{Window: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		want := temporal.Segment(ser.Stats(), 0)
		if len(snap.Phases) != len(want) {
			t.Fatalf("step %d: live %d phases, offline %d", step, len(snap.Phases), len(want))
		}
		for i := range want {
			if snap.Phases[i].FirstWindow != want[i].FirstWindow ||
				snap.Phases[i].LastWindow != want[i].LastWindow ||
				snap.Phases[i].Label != want[i].Label {
				t.Fatalf("step %d phase %d: live %+v, offline %+v",
					step, i, snap.Phases[i], want[i])
			}
		}
	}
	for i := 0; i < 8; i++ {
		burst(0.4, 0.41, 0.39, 0.4)
	}
	for i := 0; i < 6; i++ {
		burst(0.45, 0.05, 0.05, 0.05)
	}
	for i := 0; i < 4; i++ {
		burst() // idle gap: no events, windows stay empty
	}
	for i := 0; i < 6; i++ {
		burst(0.3, 0.31, 0.3, 0.29)
	}
}

// TestConcurrentRecordPhases hammers the collector with concurrent
// recorders and /phases.json scrapes; under -race this verifies the
// segmentation stays inside the fold mutex and the published phases are
// immutable.
func TestConcurrentRecordPhases(t *testing.T) {
	c := monitor.NewCollector(monitor.Options{Window: 1})
	handler := PhasesHandler(c)
	var wg sync.WaitGroup
	const (
		recorders = 4
		scrapers  = 3
		rounds    = 50
	)
	errs := make(chan error, scrapers)
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				start := float64(r) * 0.3
				c.Record(trace.Event{Rank: g, Region: "loop0", Activity: "comp",
					Start: start, End: start + 0.3 + float64(g)*0.01})
			}
		}(g)
	}
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := httptest.NewRecorder()
				handler(rec, httptest.NewRequest("GET", "/phases.json", nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("scrape = %d", rec.Code)
					return
				}
				var payload phasesPayload
				if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
