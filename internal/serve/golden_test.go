package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"loadimb/internal/apps"
	"loadimb/internal/monitor"
	"loadimb/internal/mpi"
)

// -update regenerates the golden files. Run it only to bless an
// intentional wire-format change; the whole point of the goldens is that
// refactors of the window fold keep /timeline.json byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenWorkload streams a deterministic wavefront run (virtual time,
// seeded costs — no wall-clock anywhere) into a windowed collector, so
// the timeline document it serves is reproducible bit for bit. The
// pipelined sweep produces per-window busy sums and Gini values that
// differ from their neighbours by single ulps (4.799999999999997 vs
// …004, 2.22e-16 vs 0), which is the point: any change to the fold's
// clipping or accumulation order shows up in the golden bytes.
func goldenWorkload(t *testing.T) *monitor.Collector {
	t.Helper()
	c := monitor.NewCollector(monitor.Options{Window: 0.3, Activities: mpi.Activities()})
	cfg := apps.DefaultWavefront()
	cfg.Sink = c
	if _, err := apps.Wavefront(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTimelineGolden locks the live /timeline.json document: the window
// fold refactor onto internal/temporal must keep the served bytes
// identical to the pre-refactor collector's output, which this golden was
// generated from.
func TestTimelineGolden(t *testing.T) {
	c := goldenWorkload(t)
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	code, body, ctype := get(t, srv.URL+"/timeline.json")
	if code != http.StatusOK {
		t.Fatalf("/timeline.json = %d", code)
	}
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	checkGolden(t, filepath.Join("testdata", "timeline_live.golden.json"), []byte(body))
}

// TestWindowsGolden locks the /windows.json document — the raw window
// series the federation layer scrapes and merges.
func TestWindowsGolden(t *testing.T) {
	c := goldenWorkload(t)
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	code, body, ctype := get(t, srv.URL+"/windows.json")
	if code != http.StatusOK {
		t.Fatalf("/windows.json = %d", code)
	}
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	checkGolden(t, filepath.Join("testdata", "windows_live.golden.json"), []byte(body))
}

// TestPhasesGolden locks the live /phases.json document: the per-phase
// dispersion indices and hot activities are computed straight from the
// window vectors, and any change to that summary's arithmetic or order
// shows up in the golden bytes.
func TestPhasesGolden(t *testing.T) {
	c := goldenWorkload(t)
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	code, body, ctype := get(t, srv.URL+"/phases.json")
	if code != http.StatusOK {
		t.Fatalf("/phases.json = %d", code)
	}
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	checkGolden(t, filepath.Join("testdata", "phases_live.golden.json"), []byte(body))
}
