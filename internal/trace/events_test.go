package trace

import (
	"math"
	"reflect"
	"testing"
)

func TestEventValidate(t *testing.T) {
	ok := Event{Rank: 0, Region: "l1", Activity: "comp", Start: 0, End: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid event: %v", err)
	}
	bad := []Event{
		{Rank: -1, Region: "l", Activity: "a", End: 1},
		{Rank: 0, Region: "", Activity: "a", End: 1},
		{Rank: 0, Region: "l", Activity: "", End: 1},
		{Rank: 0, Region: "l", Activity: "a", Start: 2, End: 1},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad event %d accepted", i)
		}
	}
	if d := ok.Duration(); d != 1 {
		t.Errorf("Duration = %g", d)
	}
}

func TestLogAppend(t *testing.T) {
	var l Log
	if err := l.Append(Event{Rank: 0, Region: "l", Activity: "a", End: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Rank: -1, Region: "l", Activity: "a", End: 1}); err == nil {
		t.Error("invalid event accepted")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
	evs := l.Events()
	evs[0].Rank = 42
	if l.Events()[0].Rank != 0 {
		t.Error("Events should return a copy")
	}
}

// TestLogAppendNonFinite: NaN slips past End < Start and ±Inf orders
// like any time, so non-finite times need their own check.
func TestLogAppendNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end float64
	}{
		{"NaN/NaN", math.NaN(), math.NaN()},
		{"0/+Inf", 0, math.Inf(1)},
		{"-Inf/0", math.Inf(-1), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l Log
			if err := l.Append(Event{Rank: 0, Region: "l", Activity: "a", Start: tc.start, End: tc.end}); err == nil {
				t.Errorf("event [%g, %g) accepted", tc.start, tc.end)
			}
			if l.Len() != 0 {
				t.Errorf("Len = %d after a rejected event", l.Len())
			}
		})
	}
}

func TestLogRanksSpan(t *testing.T) {
	var l Log
	if l.Ranks() != 0 || l.Span() != 0 {
		t.Error("empty log should have 0 ranks, 0 span")
	}
	for _, e := range []Event{
		{Rank: 2, Region: "l", Activity: "a", Start: 1, End: 5},
		{Rank: 0, Region: "l", Activity: "a", Start: 0, End: 3},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if l.Ranks() != 3 {
		t.Errorf("Ranks = %d, want 3", l.Ranks())
	}
	if l.Span() != 5 {
		t.Errorf("Span = %g, want 5", l.Span())
	}
}

func TestAggregate(t *testing.T) {
	var l Log
	events := []Event{
		{Rank: 0, Region: "l1", Activity: "comp", Start: 0, End: 2},
		{Rank: 1, Region: "l1", Activity: "comp", Start: 0, End: 4},
		{Rank: 0, Region: "l1", Activity: "comp", Start: 2, End: 3}, // folded in
		{Rank: 0, Region: "l2", Activity: "p2p", Start: 3, End: 6},
		{Rank: 1, Region: "l2", Activity: "p2p", Start: 4, End: 6},
	}
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := l.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cube.NumRegions() != 2 || cube.NumActivities() != 2 || cube.NumProcs() != 2 {
		t.Fatalf("cube dims = %d, %d, %d", cube.NumRegions(), cube.NumActivities(), cube.NumProcs())
	}
	// Rank 0 spent 2+1 = 3 in (l1, comp).
	v, err := cube.At(cube.RegionIndex("l1"), cube.ActivityIndex("comp"), 0)
	if err != nil || v != 3 {
		t.Errorf("t(l1, comp, 0) = %g, %v; want 3", v, err)
	}
	// Program time is the span, 6.
	if got := cube.ProgramTime(); got != 6 {
		t.Errorf("ProgramTime = %g, want 6", got)
	}
	// Instrumented total: (3+4)/2 + (3+2)/2 = 6.
	if got := cube.RegionsTotal(); math.Abs(got-6) > 1e-12 {
		t.Errorf("RegionsTotal = %g, want 6", got)
	}
}

func TestAggregateOrder(t *testing.T) {
	var l Log
	for _, e := range []Event{
		{Rank: 0, Region: "zeta", Activity: "sync", Start: 0, End: 1},
		{Rank: 0, Region: "alpha", Activity: "comp", Start: 1, End: 2},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// Explicit order puts alpha first and declares an activity that never
	// occurs; it must still be present for stable table layouts.
	cube, err := l.Aggregate([]string{"alpha"}, []string{"comp", "p2p", "sync"})
	if err != nil {
		t.Fatal(err)
	}
	if cube.RegionIndex("alpha") != 0 || cube.RegionIndex("zeta") != 1 {
		t.Errorf("region order: %v", cube.Regions())
	}
	if cube.ActivityIndex("p2p") != 1 {
		t.Errorf("activity order: %v", cube.Activities())
	}
	has, err := cube.HasActivity(0, 1)
	if err != nil || has {
		t.Errorf("unused activity should be empty: %v, %v", has, err)
	}
}

func TestAggregateEmpty(t *testing.T) {
	var l Log
	if _, err := l.Aggregate(nil, nil); err == nil {
		t.Error("aggregating empty log should fail")
	}
}

// refAggregateProcs is AggregateProcs as it was before names were
// resolved once per event: it collects each dimension's names in one
// pass with a seen set, then maps every event's names again through an
// index map. It is the oracle for the one-pass version.
func refAggregateProcs(l *Log, regionOrder, activityOrder []string, procs int) (*Cube, error) {
	if r := l.Ranks(); r > procs {
		procs = r
	}
	ordered := func(order []string, key func(Event) string) []string {
		var names []string
		seen := make(map[string]bool)
		for _, n := range order {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		for _, e := range l.events {
			if n := key(e); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		return names
	}
	regions := ordered(regionOrder, func(e Event) string { return e.Region })
	activities := ordered(activityOrder, func(e Event) string { return e.Activity })
	cube, err := NewCube(regions, activities, procs)
	if err != nil {
		return nil, err
	}
	ri, ai := make(map[string]int), make(map[string]int)
	for i, n := range regions {
		ri[n] = i
	}
	for j, n := range activities {
		ai[n] = j
	}
	for _, e := range l.events {
		if err := cube.Add(ri[e.Region], ai[e.Activity], e.Rank, e.Duration()); err != nil {
			return nil, err
		}
	}
	if span := l.Span(); span > cube.RegionsTotal() {
		if err := cube.SetProgramTime(span); err != nil {
			return nil, err
		}
	}
	return cube, nil
}

func TestAggregateNameOrder(t *testing.T) {
	var l Log
	// New names arrive interleaved across ranks; durations are not exact
	// binary fractions, so any change in summation order shows in the
	// cells' bits.
	for _, e := range []Event{
		{Rank: 0, Region: "r1", Activity: "comp", Start: 0, End: 0.1},
		{Rank: 2, Region: "r2", Activity: "comp", Start: 0, End: 0.3},
		{Rank: 1, Region: "r1", Activity: "p2p", Start: 0.1, End: 0.7},
		{Rank: 0, Region: "r3", Activity: "sync", Start: 0.1, End: 0.2},
		{Rank: 2, Region: "r1", Activity: "io", Start: 0.3, End: 1.1},
		{Rank: 1, Region: "r4", Activity: "comp", Start: 0.7, End: 0.9},
		{Rank: 0, Region: "r3", Activity: "comp", Start: 0.2, End: 0.5},
		{Rank: 0, Region: "r1", Activity: "comp", Start: 0.5, End: 0.6},
		{Rank: 1, Region: "r1", Activity: "p2p", Start: 0.9, End: 1.3},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		regions, activities []string
		procs               int
	}{
		{nil, nil, 0},
		// A duplicate and a name no event uses in each dimension.
		{[]string{"r3", "unused", "r3", "r1"}, []string{"sync", "comp", "idle", "sync"}, 0},
		{[]string{"r4"}, []string{"io", "io"}, 5},
	} {
		got, err := l.AggregateProcs(tc.regions, tc.activities, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refAggregateProcs(&l, tc.regions, tc.activities, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Regions(), want.Regions()) || !reflect.DeepEqual(got.Activities(), want.Activities()) || got.NumProcs() != want.NumProcs() {
			t.Fatalf("%v/%v: axes %v %v %d, want %v %v %d", tc.regions, tc.activities,
				got.Regions(), got.Activities(), got.NumProcs(), want.Regions(), want.Activities(), want.NumProcs())
		}
		for i := 0; i < got.NumRegions(); i++ {
			for j := 0; j < got.NumActivities(); j++ {
				for p := 0; p < got.NumProcs(); p++ {
					g, _ := got.At(i, j, p)
					w, _ := want.At(i, j, p)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%v/%v: t(%d,%d,%d) = %v, want %v", tc.regions, tc.activities, i, j, p, g, w)
					}
				}
			}
		}
		if g, w := got.ProgramTime(), want.ProgramTime(); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%v/%v: program time %v, want %v", tc.regions, tc.activities, g, w)
		}
	}
}

func TestDurations(t *testing.T) {
	var l Log
	for _, e := range []Event{
		{Rank: 0, Region: "r1", Activity: "comp", Start: 0, End: 2},
		{Rank: 1, Region: "r1", Activity: "comp", Start: 0, End: 3},
		{Rank: 0, Region: "r2", Activity: "comp", Start: 2, End: 2.5},
		{Rank: 0, Region: "r1", Activity: "p2p", Start: 2, End: 4},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	comp := l.Durations("comp")
	if len(comp) != 3 || comp[0] != 2 || comp[1] != 3 || comp[2] != 0.5 {
		t.Errorf("Durations(comp) = %v", comp)
	}
	if got := l.Durations("nope"); got != nil {
		t.Errorf("Durations(nope) = %v", got)
	}
	r1comp := l.RegionDurations("r1", "comp")
	if len(r1comp) != 2 || r1comp[1] != 3 {
		t.Errorf("RegionDurations = %v", r1comp)
	}
}

func TestWindow(t *testing.T) {
	var l Log
	for _, e := range []Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 4},
		{Rank: 0, Region: "r", Activity: "b", Start: 4, End: 8},
		{Rank: 1, Region: "r", Activity: "a", Start: 2, End: 6},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	w, err := l.Window(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("window has %d events", w.Len())
	}
	for _, e := range w.Events() {
		if e.Start < 3 || e.End > 5 {
			t.Errorf("event not clipped: %+v", e)
		}
	}
	// Fully-outside events are dropped.
	early, err := l.Window(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if early.Len() != 1 || early.Events()[0].Activity != "a" {
		t.Errorf("early window = %+v", early.Events())
	}
	if _, err := l.Window(5, 5); err == nil {
		t.Error("empty window should fail")
	}
}

func TestWindowAggregatesPerPhase(t *testing.T) {
	var l Log
	// Two "iterations" with different balance.
	for _, e := range []Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: 1, Region: "r", Activity: "a", Start: 0, End: 1},
		{Rank: 0, Region: "r", Activity: "a", Start: 1, End: 2},
		{Rank: 1, Region: "r", Activity: "a", Start: 1, End: 1.1},
	} {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	first, err := l.Window(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Window(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := first.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := second.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := c1.ProcTimes(0, 0)
	t2, _ := c2.ProcTimes(0, 0)
	if t1[0] != t1[1] {
		t.Errorf("first iteration should be balanced: %v", t1)
	}
	if t2[0] == t2[1] {
		t.Errorf("second iteration should be imbalanced: %v", t2)
	}
}
