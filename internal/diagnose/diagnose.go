// Package diagnose turns window series into root-cause reports: which
// ranks behave unlike their peers, in which phase, and where the extra
// (or missing) time went. It is the programmatic layer Liu et al.
// ("Similarity Analysis in Automatic Performance Debugging of SPMD
// Parallel Programs") and Cankur & Karavanic argue for on top of the
// paper's dispersion indices — ID_P says a run is imbalanced, the
// diagnosis names the rank and the activity.
//
// The mechanism: per detected phase, each rank gets a behavioral
// fingerprint — its per-activity and per-region busy time inside the
// phase, normalized by the phase duration so every dimension is a
// utilization in [0, 1] and phases of different lengths are comparable.
// Fingerprints are clustered into cohorts with silhouette-selected
// k-means (internal/cluster); each rank's divergence is its distance to
// the cohort it is read against, expressed in units of the pooled cohort
// scatter. Ranks isolated in a singleton cohort are scored against the
// nearest real cohort — a lone diverged rank is the most interesting
// finding, not a degenerate case to drop — and are reported at a lower
// score bar than cohort members, since the partition itself is evidence.
//
// Diagnose is deterministic and never fails: degenerate inputs (no
// series, one rank, all-idle phases) produce an empty report, the
// shape the wire endpoints serve unconditionally.
package diagnose

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"loadimb/internal/cluster"
	"loadimb/internal/temporal"
)

// Dimension kinds a fingerprint coordinate can carry.
const (
	// KindActivity marks a coordinate measuring one activity class's
	// utilization (computation, p2p, ...).
	KindActivity = "activity"
	// KindRegion marks a coordinate measuring one code region's
	// utilization; in federated reports region names are job-namespaced.
	KindRegion = "region"
	// KindTotal marks the single aggregate-busy-time coordinate used when
	// the series carries neither per-activity nor per-region vectors.
	KindTotal = "total"
)

// Options tunes a diagnosis. The zero value is the served default.
type Options struct {
	// MaxCohorts caps the number of cohorts tried per phase; 0 means 4.
	// The silhouette criterion picks the best k in [2, MaxCohorts], or
	// one cohort when no split scores better.
	MaxCohorts int
	// Threshold is the divergence score, in pooled-scatter units, at or
	// above which a cohort member becomes a finding; 0 means 3. Ranks the
	// clustering already isolated in a singleton cohort are held to the
	// lower loneThreshold instead — the partition itself is evidence —
	// but still need a divergence exceeding the pooled scatter, or an
	// arbitrary split of identical fingerprints would read as a finding.
	Threshold float64
	// TopDims caps the dominant contributions attached to a finding;
	// 0 means 3.
	TopDims int
	// RankLabels optionally names each rank for display (index = rank).
	// The federation layer passes job-namespaced labels ("job/3") so
	// findings name ranks the way the merged cube does.
	RankLabels []string
}

// loneThreshold is the minimum divergence score (in pooled-scatter
// units) a singleton-cohort rank must reach to be reported. k-means
// happily splits a set of identical fingerprints, so the isolation alone
// is not evidence; a distance beyond the surviving cohorts' own scatter
// is.
const loneThreshold = 1

func (o Options) maxCohorts() int {
	if o.MaxCohorts <= 0 {
		return 4
	}
	return o.MaxCohorts
}

func (o Options) threshold() float64 {
	if o.Threshold <= 0 {
		return 3
	}
	return o.Threshold
}

func (o Options) topDims() int {
	if o.TopDims <= 0 {
		return 3
	}
	return o.TopDims
}

// Dimension names one fingerprint coordinate.
type Dimension struct {
	// Name is the activity, region, or "busy" for the aggregate
	// coordinate.
	Name string `json:"name"`
	// Kind is KindActivity, KindRegion or KindTotal.
	Kind string `json:"kind"`
}

// Cohort is one group of behaviorally similar ranks within a phase.
type Cohort struct {
	// Ranks lists the member ranks, ascending.
	Ranks []int `json:"ranks"`
	// Centroid is the cohort's mean fingerprint, indexed like the
	// report's Dimensions.
	Centroid []float64 `json:"centroid"`
	// Spread is the root-mean-square member-to-centroid distance; 0 for
	// a singleton cohort.
	Spread float64 `json:"spread"`
}

// PhaseDiagnosis is the clustering of one phase's fingerprints.
type PhaseDiagnosis struct {
	// Phase is the 1-based phase ordinal, matching /phases.json order.
	Phase int `json:"phase"`
	// Start and End are the phase's virtual-time bounds; Label its
	// idle/quiet/hot classification.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Label string  `json:"label"`
	// Cohorts are the rank groups, largest first.
	Cohorts []Cohort `json:"cohorts"`
	// Silhouette is the clustering's mean silhouette coefficient; 0 when
	// the phase has a single cohort (the score needs two groups).
	Silhouette float64 `json:"silhouette"`
	// Scale is the pooled RMS member-to-centroid distance the phase's
	// divergence scores are expressed in.
	Scale float64 `json:"scale"`
}

// Contribution attributes part of a divergence to one dimension.
type Contribution struct {
	// Dimension and Kind name the coordinate (see Dimension).
	Dimension string `json:"dimension"`
	Kind      string `json:"kind"`
	// Delta is the rank's utilization minus the reference cohort's, in
	// absolute utilization units (fraction of the phase duration).
	Delta float64 `json:"delta"`
	// Percent is Delta as a percentage of the cohort's utilization;
	// omitted when the cohort's utilization is ~0 (the ratio would be
	// infinite, which JSON cannot carry).
	Percent *float64 `json:"percent,omitempty"`
}

// Finding is one diverged rank in one phase.
type Finding struct {
	// Rank is the diverged processor; RankLabel its display name when
	// Options.RankLabels was set.
	Rank      int    `json:"rank"`
	RankLabel string `json:"rank_label,omitempty"`
	// Phase is the 1-based phase ordinal; Start and End its bounds.
	Phase int     `json:"phase"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Cohort indexes the reference cohort in the phase's Cohorts list —
	// the rank's own cohort, or the nearest other cohort when the rank
	// was isolated in a singleton (Lone true).
	Cohort int `json:"cohort"`
	// CohortSize is the reference cohort's member count.
	CohortSize int `json:"cohort_size"`
	// Lone marks a rank the clustering isolated in its own cohort.
	Lone bool `json:"lone,omitempty"`
	// Distance is the Euclidean fingerprint distance to the reference
	// centroid; Score is Distance in units of the phase's pooled scatter.
	Distance float64 `json:"distance"`
	Score    float64 `json:"score"`
	// Dominant lists the largest contributions to the divergence, by
	// absolute delta.
	Dominant []Contribution `json:"dominant,omitempty"`
	// Summary is the human-readable one-liner.
	Summary string `json:"summary"`
}

// Report is the full diagnosis — the /diagnose.json document and the
// imba -diagnose payload.
type Report struct {
	// Window is the window width; Procs the rank count.
	Window float64 `json:"window"`
	Procs  int     `json:"procs"`
	// Dimensions names the fingerprint coordinates; every centroid is
	// indexed by it.
	Dimensions []Dimension `json:"dimensions"`
	// Phases holds one diagnosis per detected phase, in phase order.
	Phases []PhaseDiagnosis `json:"phases"`
	// Findings holds every diverged rank across all phases, by
	// descending score.
	Findings []Finding `json:"findings"`
}

// Diagnose clusters per-rank fingerprints phase by phase and reports
// diverged ranks. phases must be a segmentation of ser's own trajectory
// (Segment output over ser.Stats(), or the live path's summarized
// phases); opts zero value serves the defaults.
func Diagnose(ser *temporal.Series, phases []temporal.Phase, opts Options) *Report {
	return (*Memo)(nil).Diagnose(ser, phases, opts)
}

// Memo is Diagnose with per-phase reuse across calls. A phase whose
// input equals the previous call's — the same Phase value at the same
// ordinal, the same dimensions and Options, and a bit-identical
// fingerprint matrix — takes that call's cohorts and findings instead of
// being clustered again. The key is the input itself, so a stale result
// cannot be served. The fingerprint rows are reused too: a phase over the
// same window range whose windows share their vectors (temporal.SameVectors)
// with the windows the previous call summed for it takes that call's rows,
// at the cost of reference compares. That key assumes what the collector's
// fold guarantees: the window vectors of a series passed to a Memo are
// never edited afterwards. Only the latest call's phases are kept. A live
// collector owns one and diagnoses every snapshot generation through it,
// so a generation that appended a window sums and re-clusters the phase
// that grew, not the whole run. The zero value is ready to use; a nil
// Memo diagnoses statelessly. A Memo is safe for concurrent use.
type Memo struct {
	mu   sync.Mutex
	last *memoCall
}

// memoCall is one call's reuse key beyond the per-phase input, and its
// per-phase results.
type memoCall struct {
	dims   []Dimension
	opts   Options
	procs  int
	phases []memoPhase
}

// memoPhase is one phase's input and diagnosis. wins are the series
// windows its fingerprint rows summed.
type memoPhase struct {
	phase    temporal.Phase
	wins     []temporal.WindowVector
	points   [][]float64
	pd       PhaseDiagnosis
	findings []Finding
}

// Diagnose returns exactly what a stateless diagnosis of the same
// arguments returns; a nil m keeps no state and reuses nothing.
func (m *Memo) Diagnose(ser *temporal.Series, phases []temporal.Phase, opts Options) *Report {
	return m.diagnose(ser, ser.ActivityNames(), ser.RegionNames(), phases, opts)
}

// DiagnoseTrajectory returns what Diagnose(tr.Series, phases, opts)
// returns, taking the dimension names from the trajectory's cache instead
// of every window's maps.
func (m *Memo) DiagnoseTrajectory(tr *temporal.Trajectory, phases []temporal.Phase, opts Options) *Report {
	return m.diagnose(tr.Series, tr.ActivityNames(), tr.RegionNames(), phases, opts)
}

// diagnose runs the one diagnosis body, through the memo when m is set.
func (m *Memo) diagnose(ser *temporal.Series, acts, regs []string, phases []temporal.Phase, opts Options) *Report {
	if m == nil {
		rep, _ := diagnose(ser, acts, regs, phases, opts, nil)
		return rep
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rep, call := diagnose(ser, acts, regs, phases, opts, m.last)
	m.last = call
	return rep
}

// diagnose is the one diagnosis body over ser, whose activity and region
// names are acts and regs. prev is the previous call of a Memo (nil for
// none); the returned call is this one's, for the Memo to keep.
func diagnose(ser *temporal.Series, acts, regs []string, phases []temporal.Phase, opts Options, prev *memoCall) (*Report, *memoCall) {
	rep := &Report{}
	if ser == nil {
		return rep, nil
	}
	rep.Window = ser.Window
	rep.Procs = ser.Procs
	rep.Dimensions = dimensions(ser, acts, regs)
	if ser.Procs < 2 || len(phases) == 0 || len(rep.Dimensions) == 0 {
		return rep, nil
	}
	// The key keeps its own copy of the labels: the caller may reuse the
	// slice.
	opts.RankLabels = append([]string(nil), opts.RankLabels...)
	call := &memoCall{dims: rep.Dimensions, opts: opts, procs: ser.Procs, phases: make([]memoPhase, 0, len(phases))}
	if prev != nil && !(prev.procs == call.procs && slices.Equal(prev.dims, call.dims) && sameOptions(prev.opts, opts)) {
		prev = nil
	}
	// Member windows are contiguous in the series: phases partition the
	// window sequence in order, so one cursor walks it once, and another
	// walks the previous call's phases for reusable rows.
	pos, cur := 0, 0
	for i, ph := range phases {
		for pos < len(ser.Windows) && ser.Windows[pos].Index < ph.FirstWindow {
			pos++
		}
		first := pos
		for pos < len(ser.Windows) && ser.Windows[pos].Index <= ph.LastWindow {
			pos++
		}
		e := memoPhase{phase: ph, wins: ser.Windows[first:pos]}
		if prev != nil {
			e.points, cur = prev.rows(ph, e.wins, cur)
		}
		if e.points == nil {
			e.points = fingerprints(ser, rep.Dimensions, first, pos, ph)
		}
		if prev != nil && i < len(prev.phases) && prev.phases[i].phase == ph && samePoints(prev.phases[i].points, e.points) {
			e.pd, e.findings = prev.phases[i].pd, prev.phases[i].findings
		} else {
			e.pd = PhaseDiagnosis{Phase: i + 1, Start: ph.Start, End: ph.End, Label: ph.Label}
			e.findings = diagnosePhase(rep.Dimensions, &e.pd, e.points, opts)
		}
		rep.Phases = append(rep.Phases, e.pd)
		rep.Findings = append(rep.Findings, e.findings...)
		call.phases = append(call.phases, e)
	}
	// A total order — a rank has at most one finding per phase — so the
	// order does not depend on which phases were reused.
	sort.SliceStable(rep.Findings, func(a, b int) bool {
		fa, fb := rep.Findings[a], rep.Findings[b]
		if fa.Score != fb.Score {
			return fa.Score > fb.Score
		}
		if fa.Phase != fb.Phase {
			return fa.Phase < fb.Phase
		}
		return fa.Rank < fb.Rank
	})
	return rep, call
}

// rows returns the fingerprint rows of this call's phase over the same
// window range and bounds as ph whose summed windows share their vectors
// with wins, or nil when there is none. Phases come in window order, so
// the search resumes from cursor j, and returns the cursor to resume from.
func (c *memoCall) rows(ph temporal.Phase, wins []temporal.WindowVector, j int) ([][]float64, int) {
	for j < len(c.phases) && c.phases[j].phase.FirstWindow < ph.FirstWindow {
		j++
	}
	if j == len(c.phases) {
		return nil, j
	}
	p := &c.phases[j]
	if p.phase.FirstWindow != ph.FirstWindow || p.phase.LastWindow != ph.LastWindow ||
		p.phase.Start != ph.Start || p.phase.End != ph.End || len(p.wins) != len(wins) {
		return nil, j
	}
	for k := range wins {
		if !temporal.SameVectors(&p.wins[k], &wins[k]) {
			return nil, j
		}
	}
	return p.points, j
}

// sameOptions reports whether two option sets are field-for-field equal.
func sameOptions(a, b Options) bool {
	return a.MaxCohorts == b.MaxCohorts && a.Threshold == b.Threshold &&
		a.TopDims == b.TopDims && slices.Equal(a.RankLabels, b.RankLabels)
}

// samePoints reports whether two fingerprint matrices are bit-identical.
func samePoints(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			return false
		}
		for d := range a[p] {
			if math.Float64bits(a[p][d]) != math.Float64bits(b[p][d]) {
				return false
			}
		}
	}
	return true
}

// dimensions derives the fingerprint coordinate list from what the
// series tracked: its activities, then its regions, both sorted; the
// aggregate busy time alone when neither was recorded.
func dimensions(ser *temporal.Series, acts, regs []string) []Dimension {
	var dims []Dimension
	for _, a := range acts {
		dims = append(dims, Dimension{Name: a, Kind: KindActivity})
	}
	for _, r := range regs {
		dims = append(dims, Dimension{Name: r, Kind: KindRegion})
	}
	if dims == nil && len(ser.Windows) > 0 {
		dims = []Dimension{{Name: "busy", Kind: KindTotal}}
	}
	return dims
}

// fingerprints builds the phase's rank-by-dimension utilization matrix
// from the series windows in [first, last).
func fingerprints(ser *temporal.Series, dims []Dimension, first, last int, ph temporal.Phase) [][]float64 {
	points := make([][]float64, ser.Procs)
	flat := make([]float64, ser.Procs*len(dims))
	for p := range points {
		points[p] = flat[p*len(dims) : (p+1)*len(dims) : (p+1)*len(dims)]
	}
	dur := ph.End - ph.Start
	if dur <= 0 || first >= last {
		return points
	}
	for w := first; w < last; w++ {
		v := &ser.Windows[w]
		for d, dim := range dims {
			var vec []float64
			switch dim.Kind {
			case KindActivity:
				vec = v.PerActivity[dim.Name]
			case KindRegion:
				vec = v.PerRegion[dim.Name]
			default:
				vec = v.ProcSeconds
			}
			for p, t := range vec {
				if p < len(points) {
					points[p][d] += t
				}
			}
		}
	}
	for p := range points {
		for d := range points[p] {
			points[p][d] /= dur
		}
	}
	return points
}

// diagnosePhase clusters one phase's fingerprints into pd and returns the
// phase's findings.
func diagnosePhase(dims []Dimension, pd *PhaseDiagnosis, points [][]float64, opts Options) []Finding {
	// An all-idle phase has no behavior to compare: one empty-handed
	// cohort of everyone, no findings.
	allZero := true
	for _, p := range points {
		for _, v := range p {
			if v != 0 {
				allZero = false
				break
			}
		}
	}
	if allZero {
		pd.Cohorts = []Cohort{{Ranks: rankList(len(points)), Centroid: make([]float64, len(dims))}}
		return nil
	}
	maxK := opts.maxCohorts()
	if maxK > len(points) {
		maxK = len(points)
	}
	res, k, err := cluster.BestK(points, maxK, cluster.Options{})
	if err != nil {
		return nil // unreachable for validated non-empty points; degrade to no cohorts
	}
	dists, err := cluster.Distances(points, res.Centroids, res.Assign)
	if err != nil {
		return nil
	}
	groups := res.Groups()
	spreads, err := cluster.SpreadByCluster(dists, res.Assign, k)
	if err != nil {
		return nil
	}
	// Pooled scatter over ranks in real (multi-member) cohorts, floored
	// so perfectly tight cohorts still divide cleanly: the floor is tiny
	// against any real utilization signal but keeps scores finite and
	// deterministic.
	sumSq, n := 0.0, 0
	for p, d := range dists {
		if len(groups[res.Assign[p]]) >= 2 {
			sumSq += d * d
			n++
		}
	}
	scale := 0.0
	if n > 0 {
		scale = math.Sqrt(sumSq / float64(n))
	}
	if floor := scaleFloor(points); scale < floor {
		scale = floor
	}
	pd.Scale = scale
	// Cohorts largest first; order[c] maps cluster id to cohort index.
	order := make([]int, k)
	idx := make([]int, k)
	for c := range idx {
		idx[c] = c
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if len(groups[idx[a]]) != len(groups[idx[b]]) {
			return len(groups[idx[a]]) > len(groups[idx[b]])
		}
		return firstRank(groups[idx[a]]) < firstRank(groups[idx[b]])
	})
	for pos, c := range idx {
		order[c] = pos
		pd.Cohorts = append(pd.Cohorts, Cohort{
			Ranks:    append([]int(nil), groups[c]...),
			Centroid: append([]float64(nil), res.Centroids[c]...),
			Spread:   spreads[c],
		})
	}
	if k >= 2 {
		if s, err := cluster.Silhouette(points, res.Assign); err == nil {
			pd.Silhouette = s
		}
	}
	var findings []Finding
	for p := range points {
		own := res.Assign[p]
		ref := own
		lone := len(groups[own]) == 1
		if lone {
			ref = cluster.NearestOther(points[p], res.Centroids, own)
			if ref < 0 || len(groups[ref]) < 2 {
				// No real cohort to read the lone rank against (e.g. two
				// ranks, each its own cohort): divergence is undefined.
				continue
			}
		}
		d := math.Sqrt(sqDist(points[p], res.Centroids[ref]))
		score := d / scale
		if lone {
			if score < loneThreshold {
				continue
			}
		} else if score < opts.threshold() {
			continue
		}
		f := Finding{
			Rank:       p,
			Phase:      pd.Phase,
			Start:      pd.Start,
			End:        pd.End,
			Cohort:     order[ref],
			CohortSize: len(groups[ref]),
			Lone:       lone,
			Distance:   d,
			Score:      score,
		}
		if p < len(opts.RankLabels) {
			f.RankLabel = opts.RankLabels[p]
		}
		f.Dominant = attribute(points[p], res.Centroids[ref], dims, opts.topDims())
		f.Summary = summarize(f)
		findings = append(findings, f)
	}
	return findings
}

// scaleFloor is the deterministic lower bound on a phase's score scale:
// a millionth of the fingerprints' RMS magnitude (plus an absolute
// epsilon for all-but-zero phases), so identical-cohort phases score
// their outlier enormously instead of dividing by zero.
func scaleFloor(points [][]float64) float64 {
	sumSq, n := 0.0, 0
	for _, p := range points {
		for _, v := range p {
			sumSq += v * v
			n++
		}
	}
	rms := 0.0
	if n > 0 {
		rms = math.Sqrt(sumSq / float64(n))
	}
	return 1e-12 + 1e-6*rms
}

// attribute ranks the reference-relative utilization deltas and keeps
// the top contributions.
func attribute(x, ref []float64, dims []Dimension, top int) []Contribution {
	var out []Contribution
	for d := range x {
		delta := x[d] - ref[d]
		if delta == 0 {
			continue
		}
		c := Contribution{Dimension: dims[d].Name, Kind: dims[d].Kind, Delta: delta}
		if ref[d] > 1e-12 {
			pct := 100 * delta / ref[d]
			c.Percent = &pct
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool {
		da, db := math.Abs(out[a].Delta), math.Abs(out[b].Delta)
		if da != db {
			return da > db
		}
		return out[a].Dimension < out[b].Dimension
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}

// summarize renders the finding's one-liner, e.g.
//
//	rank 17 diverged from its 63-rank cohort in phase 3 (4.2σ), dominated by p2p (+38%)
func summarize(f Finding) string {
	rank := fmt.Sprintf("rank %d", f.Rank)
	if f.RankLabel != "" {
		rank = "rank " + f.RankLabel
	}
	verb := "diverged from"
	if f.Lone {
		verb = "split off from"
	}
	s := fmt.Sprintf("%s %s its %d-rank cohort in phase %d (%.1fσ)", rank, verb, f.CohortSize, f.Phase, f.Score)
	if len(f.Dominant) > 0 {
		c := f.Dominant[0]
		dim := c.Dimension
		if c.Kind == KindRegion {
			dim = fmt.Sprintf("region %q", c.Dimension)
		}
		if c.Percent != nil {
			s += fmt.Sprintf(", dominated by %s (%+.0f%%)", dim, *c.Percent)
		} else {
			s += fmt.Sprintf(", dominated by %s (Δ%+.3f util)", dim, c.Delta)
		}
	}
	return s
}

func rankList(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func firstRank(g []int) int {
	if len(g) == 0 {
		return math.MaxInt
	}
	return g[0]
}

// sqDist is the squared Euclidean distance (duplicated from
// internal/cluster, which keeps it unexported).
func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
