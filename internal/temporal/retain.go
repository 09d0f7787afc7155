package temporal

import (
	"math"
	"sort"
)

// BoundSeries re-bounds an already-built series to at most cap windows
// per resolution zone: the newest cap full-resolution windows stay in the
// ring, older ones are decimated into the coarse tail (2:1 against the
// base width, or folded into the series' existing coarse width when it
// already has one), and the coarse tail re-decimates — doubling its
// width — until it fits the cap too. It is the one-shot counterpart of
// the Fold's incremental retention, used by the federation layer to
// bound a merged series whose endpoints were themselves unbounded.
//
// The input series is never mutated; when it already fits the cap it is
// returned as is.
func BoundSeries(s *Series, cap int) *Series {
	if s == nil || cap <= 0 || (len(s.Windows) <= cap && len(s.Coarse) <= cap) {
		return s
	}
	out := &Series{Window: s.Window, Procs: s.Procs}
	factor := 0
	if s.CoarseWindow > 0 {
		factor = int(math.Round(s.CoarseWindow / s.Window))
	}
	coarse := make(map[int]*WindowVector, len(s.Coarse))
	for i := range s.Coarse {
		v := s.Coarse[i]
		coarse[v.Index] = cloneVector(&v)
	}
	ring := s.Windows
	ringStart := s.RingStart
	sealed := s.CoarseWindow > 0
	if len(ring) > cap {
		if factor == 0 {
			factor = 2
		}
		cut := ring[len(ring)-cap].Index
		for i := range ring[:len(ring)-cap] {
			v := &ring[i]
			c := floorDiv(v.Index, factor)
			if dst, ok := coarse[c]; ok {
				addVector(dst, v)
			} else {
				nv := cloneVector(v)
				nv.Index = c
				coarse[c] = nv
			}
		}
		ring = ring[len(ring)-cap:]
		ringStart = cut
		sealed = true
	}
	for len(coarse) > cap {
		factor *= 2
		idxs := sortedVecIdxs(coarse)
		next := make(map[int]*WindowVector, len(coarse)/2+1)
		for _, c := range idxs {
			nc := floorDiv(c, 2)
			if dst, ok := next[nc]; ok {
				addVector(dst, coarse[c])
			} else {
				v := coarse[c]
				v.Index = nc
				next[nc] = v
			}
		}
		coarse = next
	}
	out.Windows = append([]WindowVector(nil), ring...)
	if sealed {
		out.CoarseWindow = s.Window * float64(factor)
		out.RingStart = ringStart
		out.Coarse = make([]WindowVector, 0, len(coarse))
		for _, c := range sortedVecIdxs(coarse) {
			out.Coarse = append(out.Coarse, *coarse[c])
		}
	}
	return out
}

// cloneVector deep-copies a window vector so accumulation never mutates
// the (immutable, possibly shared) input series.
func cloneVector(v *WindowVector) *WindowVector {
	nv := &WindowVector{
		Index:       v.Index,
		Events:      v.Events,
		Dominant:    v.Dominant,
		ProcSeconds: append([]float64(nil), v.ProcSeconds...),
	}
	if len(v.PerActivity) > 0 {
		nv.PerActivity = make(map[string][]float64, len(v.PerActivity))
		for k, vec := range v.PerActivity {
			nv.PerActivity[k] = append([]float64(nil), vec...)
		}
	}
	if len(v.PerRegion) > 0 {
		nv.PerRegion = make(map[string][]float64, len(v.PerRegion))
		for k, vec := range v.PerRegion {
			nv.PerRegion[k] = append([]float64(nil), vec...)
		}
	}
	return nv
}

// addVector sums src into dst elementwise — the WindowVector counterpart
// of windowAcc.mergeFrom. Dominant is dropped on merge: a decimated
// window spans several base windows whose dominants may differ, and
// recovering one would need the per-activity totals the vector may not
// carry.
func addVector(dst *WindowVector, src *WindowVector) {
	for len(dst.ProcSeconds) < len(src.ProcSeconds) {
		dst.ProcSeconds = append(dst.ProcSeconds, 0)
	}
	for p, t := range src.ProcSeconds {
		dst.ProcSeconds[p] += t
	}
	dst.Events += src.Events
	dst.Dominant = ""
	dst.PerActivity = mergeVecMap(dst.PerActivity, src.PerActivity)
	dst.PerRegion = mergeVecMap(dst.PerRegion, src.PerRegion)
}

// mergeVecMap sums src's per-dimension vectors into dst elementwise.
func mergeVecMap(dst, src map[string][]float64) map[string][]float64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string][]float64, len(src))
	}
	for k, vec := range src {
		d := dst[k]
		for len(d) < len(vec) {
			d = append(d, 0)
		}
		for p, t := range vec {
			d[p] += t
		}
		dst[k] = d
	}
	return dst
}

// sortedVecIdxs returns the map's window indices in ascending order, so
// every decimation pass accumulates in deterministic order.
func sortedVecIdxs(m map[int]*WindowVector) []int {
	idxs := make([]int, 0, len(m))
	for c := range m {
		idxs = append(idxs, c)
	}
	sort.Ints(idxs)
	return idxs
}
