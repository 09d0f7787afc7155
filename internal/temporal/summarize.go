package temporal

import (
	"sort"

	"loadimb/internal/stats"
)

// PhaseSummary is one detected phase enriched with the per-phase
// dispersion indices — the wire document the monitor and the federator
// serve at /phases.json. Unlike PhaseReport it is computed from the
// window series alone (no event log or cube required), so the live and
// federated paths can produce it from what they already hold.
type PhaseSummary struct {
	// FirstWindow and LastWindow are the phase's first and last member
	// window indices (inclusive); Start and End its virtual-time bounds.
	FirstWindow int     `json:"first_window"`
	LastWindow  int     `json:"last_window"`
	Start       float64 `json:"start"`
	End         float64 `json:"end"`
	// Windows is the number of non-empty member windows.
	Windows int `json:"windows"`
	// MeanID is the mean of the member windows' IDs (null IDs as zero) —
	// the level the change-point fit segmented on.
	MeanID float64 `json:"mean_id"`
	// Label is the phase's classification: idle, quiet or hot.
	Label string `json:"label"`
	// ID is the Euclidean index of dispersion of the per-processor busy
	// time summed over the phase — the paper's ID_P restricted to the
	// phase. Null when the phase recorded no busy time.
	ID *float64 `json:"id"`
	// Gini is the Gini coefficient of the same per-phase busy vector.
	Gini float64 `json:"gini"`
	// HotActivities lists the activities whose within-phase mean window
	// ID is at or above that activity's whole-trajectory mean — the
	// activities this phase is a hot stretch *for*. Present only when
	// the series carries per-activity vectors.
	HotActivities []string `json:"hot_activities,omitempty"`
}

// Phase returns the bare segmentation phase the summary enriched — the
// form Diagnose-style consumers that only need boundaries and labels
// take, letting the live path reuse its already-summarized phases
// without re-running the segmenter.
func (s PhaseSummary) Phase() Phase {
	return Phase{
		FirstWindow: s.FirstWindow,
		LastWindow:  s.LastWindow,
		Start:       s.Start,
		End:         s.End,
		Windows:     s.Windows,
		MeanID:      s.MeanID,
		Label:       s.Label,
	}
}

// SummarizePhases enriches a segmentation of ser's trajectory with
// per-phase dispersion indices computed from the series' busy vectors,
// and — when the series carries per-activity vectors — each phase's hot
// activities. phases must be a segmentation of ser's own trajectory
// (Segment output over ser.Stats()).
func SummarizePhases(ser *Series, phases []Phase) []PhaseSummary {
	if ser == nil || len(phases) == 0 {
		return nil
	}
	names := ser.ActivityNames()
	return summarizePhases(ser, phases, names, activityIDs(ser, names))
}

// summarizePhases is the one SummarizePhases body. ids[i*len(names)+k]
// is window i's ID for activity names[k], from activityIDs or from a
// fold's cache.
func summarizePhases(ser *Series, phases []Phase, names []string, ids []windowID) []PhaseSummary {
	n := len(names)
	// The activities' defined-window mean IDs, shared across phases.
	actMean := make([]float64, n)
	for k := range names {
		sum, defined := 0.0, 0
		for i := range ser.Windows {
			if id := ids[i*n+k]; id.ok {
				sum += id.v
				defined++
			}
		}
		if defined > 0 {
			actMean[k] = sum / float64(defined)
		}
	}
	out := make([]PhaseSummary, 0, len(phases))
	pos := 0
	for _, ph := range phases {
		sum := PhaseSummary{
			FirstWindow: ph.FirstWindow,
			LastWindow:  ph.LastWindow,
			Start:       ph.Start,
			End:         ph.End,
			Windows:     ph.Windows,
			MeanID:      ph.MeanID,
			Label:       ph.Label,
		}
		// Member windows are contiguous in the series: phases partition
		// the window sequence in order.
		for pos < len(ser.Windows) && ser.Windows[pos].Index < ph.FirstWindow {
			pos++
		}
		first := pos
		busy := make([]float64, ser.Procs)
		for pos < len(ser.Windows) && ser.Windows[pos].Index <= ph.LastWindow {
			for p, t := range ser.Windows[pos].ProcSeconds {
				if p < len(busy) {
					busy[p] += t
				}
			}
			pos++
		}
		if id, err := stats.EuclideanFromBalance(busy); err == nil {
			sum.ID = &id
		}
		sum.Gini = GiniOf(busy)
		for k, a := range names {
			mean, defined := 0.0, 0
			for i := first; i < pos; i++ {
				if id := ids[i*n+k]; id.ok {
					mean += id.v
					defined++
				}
			}
			if defined == 0 {
				continue
			}
			mean /= float64(defined)
			if mean >= actMean[k] && mean > 0 {
				sum.HotActivities = append(sum.HotActivities, a)
			}
		}
		sort.Strings(sum.HotActivities)
		out = append(out, sum)
	}
	return out
}

// windowID is one window's dispersion index; ok is false where it is
// undefined (the window recorded no busy time for the dimension).
type windowID struct {
	v  float64
	ok bool
}

// activityIDs returns, per window of ser and per activity of names (the
// summarizePhases layout), the ID ActivitySeries(a).Stats() reports for
// it, without copying the projection: undefined where the activity sat
// the window out.
func activityIDs(ser *Series, names []string) []windowID {
	ids := make([]windowID, len(ser.Windows)*len(names))
	var pad []float64
	for i := range ser.Windows {
		for k, a := range names {
			if vec, ok := ser.Windows[i].PerActivity[a]; ok {
				ids[i*len(names)+k] = activityID(vec, ser.Procs, &pad)
			}
		}
	}
	return ids
}

// activityID is one window's ID for one activity vector: the vector
// zero-padded to the processor count in the reused buffer pad (the
// index's mean divides by every processor, idle ones included).
func activityID(vec []float64, procs int, pad *[]float64) windowID {
	if len(vec) < procs {
		*pad = append((*pad)[:0], vec...)
		for len(*pad) < procs {
			*pad = append(*pad, 0)
		}
		vec = *pad
	}
	if id, err := stats.EuclideanFromBalance(vec); err == nil {
		return windowID{v: id, ok: true}
	}
	return windowID{}
}
