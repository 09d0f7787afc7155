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
// (Segment or StreamSegmenter output over ser.Stats()).
func SummarizePhases(ser *Series, phases []Phase) []PhaseSummary {
	if ser == nil || len(phases) == 0 {
		return nil
	}
	// Per-activity window IDs and their defined-window means, shared
	// across phases.
	actNames := ser.ActivityNames()
	actIDs := make([][]windowID, len(actNames))
	actMean := make([]float64, len(actNames))
	for k, a := range actNames {
		actIDs[k] = activityIDs(ser, a)
		sum, defined := 0.0, 0
		for _, id := range actIDs[k] {
			if id.ok {
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
		for k, a := range actNames {
			mean, defined := 0.0, 0
			for _, id := range actIDs[k][first:pos] {
				if id.ok {
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

// activityIDs returns, per window of ser, the ID ActivitySeries(a).Stats()
// reports for it, without copying the projection: the activity's vector
// zero-padded to the processor count in one reused buffer (the index's
// mean divides by every processor, idle ones included), and undefined
// where the activity sat the window out.
func activityIDs(ser *Series, a string) []windowID {
	ids := make([]windowID, len(ser.Windows))
	var pad []float64
	for i := range ser.Windows {
		vec, ok := ser.Windows[i].PerActivity[a]
		if !ok {
			continue
		}
		if len(vec) < ser.Procs {
			pad = append(pad[:0], vec...)
			for len(pad) < ser.Procs {
				pad = append(pad, 0)
			}
			vec = pad
		}
		if id, err := stats.EuclideanFromBalance(vec); err == nil {
			ids[i] = windowID{v: id, ok: true}
		}
	}
	return ids
}
