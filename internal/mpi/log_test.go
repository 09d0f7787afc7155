package mpi

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"loadimb/internal/trace"
)

// refLog is World.Log's oracle: it appends every event in rank order and
// stable-sorts the whole log by start time, then rank, then region.
func refLog(w *World) (*trace.Log, error) {
	var evs []trace.Event
	for _, stream := range w.events {
		for _, e := range stream {
			if err := e.Validate(); err != nil {
				return nil, err
			}
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.Start != eb.Start {
			return ea.Start < eb.Start
		}
		if ea.Rank != eb.Rank {
			return ea.Rank < eb.Rank
		}
		return ea.Region < eb.Region
	})
	var log trace.Log
	for _, e := range evs {
		if err := log.Append(e); err != nil {
			return nil, err
		}
	}
	return &log, nil
}

// sameEvent compares two events field for field, telling -0 from +0.
func sameEvent(a, b trace.Event) bool {
	return a.Rank == b.Rank && a.Region == b.Region && a.Activity == b.Activity &&
		math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.End) == math.Float64bits(b.End)
}

// checkLog requires World.Log to return refLog's events in refLog's
// order, or refLog's error.
func checkLog(t *testing.T, name string, w *World) *trace.Log {
	t.Helper()
	got, err := w.Log()
	want, wantErr := refLog(w)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", name, err, wantErr)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, r := got.Events(), want.Events()
	if len(g) != len(r) {
		t.Fatalf("%s: %d events, want %d", name, len(g), len(r))
	}
	for i := range g {
		if !sameEvent(g[i], r[i]) {
			t.Fatalf("%s: event %d = %+v, want %+v", name, i, g[i], r[i])
		}
	}
	return got
}

// worldOf builds a world whose per-rank streams are given directly; each
// event's Rank is its stream's index, as Comm records them.
func worldOf(t *testing.T, streams ...[]trace.Event) *World {
	t.Helper()
	w, err := NewWorld(len(streams), unitCost())
	if err != nil {
		t.Fatal(err)
	}
	for r, evs := range streams {
		for i := range evs {
			evs[i].Rank = r
		}
		w.events[r] = evs
	}
	return w
}

// ev is an event of activity "a" unless act is given.
func ev(region string, start, end float64, act ...string) trace.Event {
	a := "a"
	if len(act) > 0 {
		a = act[0]
	}
	return trace.Event{Region: region, Activity: a, Start: start, End: end}
}

func TestWorldLogMatchesStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name    string
		streams [][]trace.Event
	}{
		{"no events", [][]trace.Event{nil, nil}},
		{"equal starts across ranks", [][]trace.Event{
			{ev("x", 0, 1), ev("y", 1, 2), ev("x", 2, 2)},
			{ev("y", 0, 1), ev("x", 1, 2), ev("x", 2, 3)},
			{ev("x", 0, 2), ev("x", 2, 3)},
		}},
		{"equal starts within a rank, regions descending", [][]trace.Event{
			{ev("z", 0, 0), ev("y", 0, 0, "p"), ev("y", 0, 0, "q"), ev("x", 0, 1), ev("y", 1, 1), ev("x", 1, 2)},
			{ev("z", 0, 1)},
		}},
		{"zero-length events and empty ranks", [][]trace.Event{
			nil,
			{ev("r", 1, 1), ev("r", 1, 1, "b"), ev("r", 1, 3)},
			nil,
			{ev("r", 0, 1), ev("r", 1, 1), ev("s", 1, 1)},
			nil,
		}},
		{"-0 against +0", [][]trace.Event{
			{ev("b", 0, 1), ev("a", negZero, 1)},
			{ev("a", negZero, 0), ev("a", 0, 0, "b")},
		}},
		{"starts step backwards", [][]trace.Event{
			{ev("r", 2, 3), ev("r", 1, 2), ev("q", 1, 4), ev("r", 3, 4), ev("r", 0, 1)},
			{ev("r", 1, 2), ev("r", 0, 1)},
		}},
	} {
		checkLog(t, tc.name, worldOf(t, tc.streams...))
	}

	// The four events the log's sort was first tested on, appended rank 1
	// first there, and the order it gave them.
	l := checkLog(t, "four events", worldOf(t,
		[]trace.Event{ev("c", 1, 2), ev("a", 1, 2)},
		[]trace.Event{ev("b", 2, 3), ev("a", 1, 2)},
	))
	evs := l.Events()
	if evs[0].Region != "a" || evs[0].Rank != 0 {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[1].Region != "c" {
		t.Errorf("second event = %+v", evs[1])
	}
	if evs[2].Rank != 1 || evs[2].Region != "a" {
		t.Errorf("third event = %+v", evs[2])
	}
	if evs[3].Start != 2 {
		t.Errorf("last event = %+v", evs[3])
	}

	// Of two malformed events, the error names rank 0's, as the append
	// in rank order did, though rank 1's starts earlier.
	bad := worldOf(t,
		[]trace.Event{ev("r", 0, 1), ev("r", 5, 4)},
		[]trace.Event{ev("r", 1, math.NaN())},
	)
	checkLog(t, "malformed", bad)
	if _, err := bad.Log(); err == nil || !strings.Contains(err.Error(), "before start 5") {
		t.Errorf("malformed log error = %v, want rank 0's event", err)
	}

	for _, procs := range []int{1, 2, 5, 8} {
		for _, cost := range []CostModel{unitCost(), DefaultCostModel()} {
			w := realRun(t, procs, cost)
			if procs > 1 && slices.IsSortedFunc(w.events[1], cmpStartRegion) {
				t.Errorf("%d ranks: rank 1's stream ascends, so the run no longer starts \"a\" where \"z\" ended", procs)
			}
			checkLog(t, "real run", w)
		}
	}
}

// realRun runs a program of Compute, Sendrecv, Allreduce and Barrier in
// two regions. Rank 1 ends region "z" with a receive whose message has
// already arrived, a zero-length event, and computes in region "a" from
// the same clock, so its stream descends by region at one start.
func realRun(t *testing.T, procs int, cost CostModel) *World {
	t.Helper()
	w, err := NewWorld(procs, cost)
	if err != nil {
		t.Fatal(err)
	}
	run := w.Run(func(c *Comm) error {
		r, p := c.Rank(), c.Size()
		if err := c.EnterRegion("z"); err != nil {
			return err
		}
		if p > 1 && r == 0 {
			if err := c.Send(1, 7, 0); err != nil {
				return err
			}
		}
		if err := c.Compute(5 * float64(r%3)); err != nil {
			return err
		}
		if p > 1 && r == 1 {
			if _, err := c.Recv(0, 7); err != nil {
				return err
			}
		}
		if err := c.ExitRegion(); err != nil {
			return err
		}
		if err := c.EnterRegion("a"); err != nil {
			return err
		}
		for it := 0; it < 3; it++ {
			if err := c.Compute(float64((r + it) % 2)); err != nil {
				return err
			}
			if p > 1 {
				if _, err := c.Sendrecv((r+1)%p, 8, (r+p-1)%p, it); err != nil {
					return err
				}
			}
			if err := c.Allreduce(8); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return c.ExitRegion()
	})
	if run != nil {
		t.Fatal(run)
	}
	return w
}

// FuzzWorldLog decodes per-rank streams and requires World.Log to return
// refLog's events, or its error. Starts and durations are small integers
// so ties are common; a set low bit of the first byte makes each rank's
// clock advance like Comm's, otherwise starts are drawn freely. A few
// values of an event's third byte make it malformed: an end before its
// start, a NaN start or infinite times.
func FuzzWorldLog(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 1, 2, 2, 0, 4, 0, 1, 9})
	f.Add([]byte{7, 0, 0, 3, 1, 0, 5, 2, 0, 6, 3, 0, 2, 0, 0, 1})
	f.Add([]byte{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{2, 0, 0x80, 0, 1, 0x80, 0, 0, 0xff, 0})
	f.Add([]byte{4, 0, 1, 0, 1, 0, 0xfc, 0, 2, 1, 1, 0, 0xfd})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		procs := int(data[0]>>1)%64 + 1
		clockLike := data[0]&1 == 1
		streams := make([][]trace.Event, procs)
		clocks := make([]float64, procs)
		regions := []string{"a", "b", "c"}
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			r := int(data[0]) % procs
			start := float64(data[1] % 6)
			if clockLike {
				start = clocks[r] + float64(data[1]%2)
			}
			if data[1]&0x80 != 0 {
				start = -start // -0 when start is 0
			}
			end := start + float64(data[2]%3)
			switch data[2] {
			case 0xff:
				end = start - 1
			case 0xfe:
				end = math.Inf(1)
			case 0xfd:
				start = math.NaN()
			case 0xfc:
				start, end = math.Inf(1), math.Inf(1)
			}
			clocks[r] = end
			streams[r] = append(streams[r], trace.Event{
				Rank:     r,
				Region:   regions[int(data[2]>>2)%len(regions)],
				Activity: string(rune('p' + data[0]>>6)),
				Start:    start,
				End:      end,
			})
		}
		w, err := NewWorld(procs, unitCost())
		if err != nil {
			t.Fatal(err)
		}
		copy(w.events, streams)
		checkLog(t, "fuzz", w)
	})
}
