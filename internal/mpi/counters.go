package mpi

import (
	"loadimb/internal/trace"
)

// The paper's measurement model covers counting parameters (number of
// I/O operations, bytes read/written, memory accesses, ...) alongside
// timings. This file instruments the communication volume: every send,
// receive and collective credits its byte count to the current (region,
// activity, rank) cell of a counter ledger, which aggregates into a cube
// exactly like the timing events — so the whole methodology (dispersion
// indices, views, scaling) applies unchanged to bytes.

// countEntry is one (region, activity) cell of a rank's counter ledger:
// the sum of every increment the rank credited to it, added left to right
// from zero in record order.
type countEntry struct {
	region   string
	activity string
	bytes    float64
}

// countHook, when set, sees every increment before addBytes folds it into
// its cell, from the recording rank's goroutine. The tests replay the
// increments one by one as the oracle for the folded ledger.
var countHook func(w *World, rank int, e countEntry)

// addBytes credits n bytes to the current region under the activity. It
// is a no-op outside a region (uninstrumented communication) or for
// nonpositive counts. The ledger keeps one entry per (region, activity),
// in order of first appearance; a rank has few of them and touches the
// most recent ones most, so a backward scan finds the cell without
// hashing.
func (c *Comm) addBytes(activity string, n int) {
	if c.region == "" || n <= 0 {
		return
	}
	if countHook != nil {
		countHook(c.world, c.rank, countEntry{region: c.region, activity: activity, bytes: float64(n)})
	}
	for i := len(c.counts) - 1; i >= 0; i-- {
		if e := &c.counts[i]; e.activity == activity && e.region == c.region {
			e.bytes += float64(n)
			return
		}
	}
	c.counts = append(c.counts, countEntry{region: c.region, activity: activity, bytes: float64(n)})
}

// BytesCube aggregates the byte counters of the last successful Run into
// a cube whose "times" are byte counts: t[region][activity][rank] is the
// number of bytes rank moved in that activity of that region. Regions
// are ordered as given (nil means order of first appearance). The cube
// has no separate program total; shares are relative to the total bytes
// moved in the instrumented regions.
func (w *World) BytesCube(regionOrder []string) (*trace.Cube, error) {
	// Reuse the event-log aggregation by encoding each cell as an
	// "event" from 0 carrying the byte count as duration. A cell's sum is
	// the one the aggregation would reach adding its increments one by
	// one, and regions still appear in rank-major order of first use.
	total := 0
	for _, entries := range w.counts {
		total += len(entries)
	}
	log := trace.NewLog(total)
	for rank, entries := range w.counts {
		for _, e := range entries {
			ev := trace.Event{
				Rank:     rank,
				Region:   e.region,
				Activity: e.activity,
				Start:    0,
				End:      e.bytes,
			}
			if err := log.Append(ev); err != nil {
				return nil, err
			}
		}
	}
	if log.Len() == 0 {
		// A run that moved no bytes still has a meaningful (empty)
		// counter cube if we know the shape; without events we cannot
		// name the dimensions, so report it as an error the caller can
		// distinguish.
		return nil, ErrNoCounters
	}
	cube, err := log.Aggregate(regionOrder, Activities())
	if err != nil {
		return nil, err
	}
	// The aggregation sets the program time to the log span, which for
	// counters is just the largest single cell — meaningless.
	// Reset to the derived total.
	if err := cube.SetProgramTime(0); err != nil {
		return nil, err
	}
	return cube, nil
}
