package temporal

import (
	"cmp"
	"slices"
)

// A Trajectory is a fold's window series together with the summaries the
// fold caches next to each built vector (Fold.Trajectory): the ring and
// coarse trajectories, and per ring window its per-activity indices. Each
// is computed once per built vector, so a new trajectory costs what
// changed. It also carries the ring's activity and region names, which
// the fold keeps as the ring changes. A Trajectory is immutable.
type Trajectory struct {
	// Series is the fold's window series, exactly what Fold.Series
	// returns.
	Series *Series
	// Ring and Coarse are the series' Stats and CoarseStats.
	Ring, Coarse []WindowStat

	// ids[i] are ring window i's cached per-activity IDs; activities and
	// regions are the ring's sorted names, and actPos[j] is activity
	// index j's position in activities.
	ids                 []*windowIDs
	activities, regions []string
	actPos              []int
}

// windowIDs is one built window's per-activity IDs: one per activity
// vector the window records, in activity index order. inline holds them
// when there are few.
type windowIDs struct {
	ids    []dimID
	inline [4]dimID
}

// dimID is the ID of one dimension's vector in a window.
type dimID struct {
	dim int
	id  windowID
}

// idsOf computes a window's per-activity IDs from its accumulation, whose
// arrays the window's vector was just built from.
func (f *Fold) idsOf(a *windowAcc) *windowIDs {
	w := &windowIDs{}
	w.ids = w.inline[:0]
	if !f.perAct {
		return w
	}
	if len(a.acts) > len(w.inline) {
		w.ids = make([]dimID, 0, len(a.acts))
	}
	var pad []float64
	for i := range a.acts {
		w.ids = append(w.ids, dimID{a.acts[i].dim, activityID(a.acts[i].vec, f.procs, &pad)})
	}
	return w
}

// ActivityNames returns what Series.ActivityNames returns, from the fold.
func (t *Trajectory) ActivityNames() []string { return t.activities }

// RegionNames returns what Series.RegionNames returns, from the fold.
func (t *Trajectory) RegionNames() []string { return t.regions }

// SummarizePhases returns what SummarizePhases(t.Series, phases) returns,
// taking every window's per-activity IDs from the cache.
func (t *Trajectory) SummarizePhases(phases []Phase) []PhaseSummary {
	if len(phases) == 0 {
		return nil
	}
	// Lay the cached IDs out against the ring's sorted activities: every
	// activity a ring window records is one of them.
	n := len(t.activities)
	ids := make([]windowID, len(t.ids)*n)
	for i, w := range t.ids {
		for _, d := range w.ids {
			ids[i*n+t.actPos[d.dim]] = d.id
		}
	}
	return summarizePhases(t.Series, phases, t.activities, ids)
}

// ringNames returns the sorted names of the dimensions a ring count
// holds, and each dimension index's position among them (-1 for those
// outside the ring); nil names when the count is empty.
func ringNames(counts []int, names []string) (sorted []string, pos []int) {
	dims := make([]int, 0, len(counts))
	for dim, n := range counts {
		if n > 0 {
			dims = append(dims, dim)
		}
	}
	if len(dims) == 0 {
		return nil, nil
	}
	slices.SortFunc(dims, func(a, b int) int { return cmp.Compare(names[a], names[b]) })
	sorted = make([]string, len(dims))
	pos = make([]int, len(counts))
	for dim := range pos {
		pos[dim] = -1
	}
	for k, dim := range dims {
		sorted[k] = names[dim]
		pos[dim] = k
	}
	return sorted, pos
}
