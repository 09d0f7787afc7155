package temporal

import "sort"

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
	// regions are the ring's sorted names.
	ids                 []*windowIDs
	activities, regions []string
}

// windowIDs is one built window's per-activity IDs, aligned with acts:
// the fold's sorted activity names when it was built, a superset of the
// window's own. inline holds them when there are few.
type windowIDs struct {
	acts   []string
	ids    []windowID
	inline [4]windowID
}

// idsOf computes a built window's per-activity IDs for the activities
// acts; procs is the series' processor count.
func idsOf(v *WindowVector, procs int, acts []string) *windowIDs {
	w := &windowIDs{acts: acts}
	w.ids = w.inline[:0]
	if len(acts) > len(w.inline) {
		w.ids = make([]windowID, 0, len(acts))
	}
	var pad []float64
	for _, a := range acts {
		var id windowID
		if vec, ok := v.PerActivity[a]; ok {
			id = activityID(vec, procs, &pad)
		}
		w.ids = append(w.ids, id)
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
	// Lay the cached IDs out against the ring's activities: a window's
	// list is the fold's sorted names when it was built, which held every
	// activity the window records, so one walk aligns the two.
	n := len(t.activities)
	ids := make([]windowID, len(t.ids)*n)
	for i, w := range t.ids {
		j := 0
		for k, a := range t.activities {
			for j < len(w.acts) && w.acts[j] < a {
				j++
			}
			if j < len(w.acts) && w.acts[j] == a {
				ids[i*n+k] = w.ids[j]
			}
		}
	}
	return summarizePhases(t.Series, phases, t.activities, ids)
}

// sortedNames returns a name count's keys in order; nil when it is empty.
func sortedNames(counts map[string]int) []string {
	if len(counts) == 0 {
		return nil
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
