package mpi

import (
	"sync"

	"loadimb/internal/trace"
)

// RecordIncrements makes every World keep its byte-counter increments one
// by one, per rank in record order, until the returned stop func removes
// the hook and returns them.
func RecordIncrements() (stop func() map[*World][][]countEntry) {
	var mu sync.Mutex
	got := make(map[*World][][]countEntry)
	countHook = func(w *World, rank int, e countEntry) {
		mu.Lock()
		defer mu.Unlock()
		ranks := got[w]
		if ranks == nil {
			ranks = make([][]countEntry, w.Procs())
			got[w] = ranks
		}
		ranks[rank] = append(ranks[rank], e)
	}
	return func() map[*World][][]countEntry {
		countHook = nil
		return got
	}
}

// ReplayIncrements is BytesCube over a ledger of one entry per increment:
// every increment becomes a zero-length pseudo-event of its own, appended
// to a log that is not preallocated. It is the oracle for the ledger that
// folds each cell as its increments arrive.
func ReplayIncrements(counts [][]countEntry, regionOrder []string) (*trace.Cube, error) {
	var log trace.Log
	for rank, entries := range counts {
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
		return nil, ErrNoCounters
	}
	cube, err := log.Aggregate(regionOrder, Activities())
	if err != nil {
		return nil, err
	}
	if err := cube.SetProgramTime(0); err != nil {
		return nil, err
	}
	return cube, nil
}
