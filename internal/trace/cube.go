// Package trace defines the measurement model of the load-imbalance
// methodology: the three-dimensional time cube t[i][j][p] holding the wall
// clock time spent by processor p in activity j of code region i, together
// with its marginals, plus an event-level trace representation that can be
// aggregated into a cube.
//
// The cube is the single data structure consumed by every analysis in
// internal/core: coarse-grain profiling, the processor / activity / code
// region views, clustering and pattern diagrams all read from it.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Common cube errors.
var (
	// ErrNoRegions is returned when a cube is created without regions.
	ErrNoRegions = errors.New("trace: cube needs at least one region")
	// ErrNoActivities is returned when a cube is created without activities.
	ErrNoActivities = errors.New("trace: cube needs at least one activity")
	// ErrNoProcessors is returned when a cube is created without processors.
	ErrNoProcessors = errors.New("trace: cube needs at least one processor")
	// ErrDuplicateName is returned when region or activity names repeat.
	ErrDuplicateName = errors.New("trace: duplicate name")
	// ErrOutOfRange is returned when an index is outside the cube.
	ErrOutOfRange = errors.New("trace: index out of range")
	// ErrNegativeTime is returned when a wall-clock time is negative,
	// NaN or infinite.
	ErrNegativeTime = errors.New("trace: negative wall-clock time")
)

// badTime reports whether t is unusable as a wall-clock duration. The
// explicit NaN/Inf arm matters: `t < 0` alone is false for NaN, which
// would let a NaN poison every marginal and index derived from the cube.
func badTime(t float64) bool {
	return t < 0 || math.IsNaN(t) || math.IsInf(t, 0)
}

// Cube is the t_ijp measurement cube: wall clock times indexed by code
// region i, activity j and processor p. A Cube additionally records the
// wall clock time of the whole program, which may exceed the sum of the
// instrumented regions when parts of the program are not instrumented (as
// in the paper's CFD study, where the 7 measured loops account for ~93% of
// the program).
type Cube struct {
	regions    []string
	activities []string
	// rIdx and aIdx map names to cube indices; built at construction so
	// RegionIndex/ActivityIndex are O(1) in event folding and federation.
	rIdx, aIdx map[string]int
	procs      int
	// times[i][j][p]
	times [][][]float64
	// programTime is the wall clock time T of the whole program; zero
	// means "use the sum of the regions".
	programTime float64
	// marg caches every marginal sum of the cube. It is computed lazily on
	// the first marginal read, shared by concurrent readers through the
	// atomic pointer, and dropped by any mutation of the times (Set, Add,
	// Scale, in-package writers). Two goroutines racing on a cold cache may
	// both compute it; the results are identical, so either store wins.
	marg atomic.Pointer[marginals]
}

// marginals holds every marginal of the t_ijp cube in one structure, so
// each Analyze consumer reads precomputed sums instead of rescanning the
// cube. All sums are accumulated in exactly the iteration order the
// per-call accessors historically used, so cached reads are bit-identical
// to freshly computed ones (floating-point addition is order-sensitive).
type marginals struct {
	// cellSum[i][j] is sum_p t_ijp (aggregate processor-seconds of the cell).
	cellSum [][]float64
	// regionTime[i] is t_i = sum_j cellSum[i][j]/P.
	regionTime []float64
	// activityTime[j] is T_j = sum_i cellSum[i][j]/P.
	activityTime []float64
	// procRegion[i][p] is sum_j t_ijp.
	procRegion [][]float64
	// procTotal[p] is sum_i sum_j t_ijp.
	procTotal []float64
	// regionsTotal is (sum_ijp t_ijp)/P, the instrumented wall clock total.
	regionsTotal float64
}

// marginals returns the cached marginal sums, computing them on first use.
func (c *Cube) marginals() *marginals {
	if m := c.marg.Load(); m != nil {
		return m
	}
	m := c.computeMarginals()
	c.marg.Store(m)
	return m
}

// invalidate drops the cached marginals; every mutator of times calls it.
// A mutation never runs concurrently with readers, so the load sees any
// cache a reader published, and a cold cache, the common case while a
// cube is being filled, costs no atomic store.
func (c *Cube) invalidate() {
	if c.marg.Load() != nil {
		c.marg.Store(nil)
	}
}

// computeMarginals builds all marginal sums in a single pass over the
// cube, preserving the historical per-accessor summation orders: p inside
// j inside i. For fixed (i, j) the cell sum runs over ascending p; for
// fixed (i, p) the region-proc sum runs over ascending j; for fixed p the
// total runs over ascending (i, j); the raw grand total runs in (i, j, p)
// order and is divided by P only at the end, exactly as RegionsTotal did.
func (c *Cube) computeMarginals() *marginals {
	n, k, procs := len(c.regions), len(c.activities), c.procs
	m := &marginals{
		cellSum:      make([][]float64, n),
		regionTime:   make([]float64, n),
		activityTime: make([]float64, k),
		procRegion:   make([][]float64, n),
		procTotal:    make([]float64, procs),
	}
	cellFlat := make([]float64, n*k)
	procFlat := make([]float64, n*procs)
	raw := 0.0
	for i := 0; i < n; i++ {
		m.cellSum[i], cellFlat = cellFlat[:k:k], cellFlat[k:]
		m.procRegion[i], procFlat = procFlat[:procs:procs], procFlat[procs:]
		pr := m.procRegion[i]
		for j := 0; j < k; j++ {
			row := c.times[i][j]
			s := 0.0
			for p, t := range row {
				s += t
				pr[p] += t
				m.procTotal[p] += t
				raw += t
			}
			m.cellSum[i][j] = s
		}
	}
	fp := float64(procs)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < k; j++ {
			s += m.cellSum[i][j] / fp
		}
		m.regionTime[i] = s
	}
	for j := 0; j < k; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += m.cellSum[i][j] / fp
		}
		m.activityTime[j] = s
	}
	m.regionsTotal = raw / fp
	return m
}

// Precompute forces the lazy marginal caches to be built now. Publishers
// of immutable cubes (monitor snapshots, federation merges) call it once
// at fold time so every subsequent reader gets O(1) marginal lookups
// without ever paying the build.
func (c *Cube) Precompute() { c.marginals() }

// NewCube creates a zero-filled cube with the given region names, activity
// names and processor count. Names must be unique within their dimension.
func NewCube(regions, activities []string, procs int) (*Cube, error) {
	if len(regions) == 0 {
		return nil, ErrNoRegions
	}
	if len(activities) == 0 {
		return nil, ErrNoActivities
	}
	if procs <= 0 {
		return nil, ErrNoProcessors
	}
	rIdx, err := indexNames("region", regions)
	if err != nil {
		return nil, err
	}
	aIdx, err := indexNames("activity", activities)
	if err != nil {
		return nil, err
	}
	c := &Cube{
		regions:    append([]string(nil), regions...),
		activities: append([]string(nil), activities...),
		rIdx:       rIdx,
		aIdx:       aIdx,
		procs:      procs,
	}
	c.times = make([][][]float64, len(regions))
	flat := make([]float64, len(regions)*len(activities)*procs)
	for i := range c.times {
		c.times[i] = make([][]float64, len(activities))
		for j := range c.times[i] {
			c.times[i][j], flat = flat[:procs:procs], flat[procs:]
		}
	}
	return c, nil
}

// indexNames builds the name -> index map of one dimension, rejecting
// duplicates in the same pass.
func indexNames(kind string, names []string) (map[string]int, error) {
	m := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := m[n]; dup {
			return nil, fmt.Errorf("%w: %s %q", ErrDuplicateName, kind, n)
		}
		m[n] = i
	}
	return m, nil
}

// Regions returns the region names in cube order.
func (c *Cube) Regions() []string { return append([]string(nil), c.regions...) }

// Activities returns the activity names in cube order.
func (c *Cube) Activities() []string { return append([]string(nil), c.activities...) }

// RegionName returns the name of region i without copying the name table;
// per-row loops should prefer it over indexing the Regions() copy. It
// panics when i is out of range, like a slice access.
func (c *Cube) RegionName(i int) string { return c.regions[i] }

// ActivityName returns the name of activity j without copying the name
// table. It panics when j is out of range, like a slice access.
func (c *Cube) ActivityName(j int) string { return c.activities[j] }

// NumRegions returns N, the number of code regions.
func (c *Cube) NumRegions() int { return len(c.regions) }

// NumActivities returns K, the number of activities.
func (c *Cube) NumActivities() int { return len(c.activities) }

// NumProcs returns P, the number of processors.
func (c *Cube) NumProcs() int { return c.procs }

// RegionIndex returns the index of the named region, or -1. The lookup is
// a map hit, not a scan: event folding and the federate merge resolve
// names per event/cell.
func (c *Cube) RegionIndex(name string) int {
	if i, ok := c.rIdx[name]; ok {
		return i
	}
	return -1
}

// ActivityIndex returns the index of the named activity, or -1.
func (c *Cube) ActivityIndex(name string) int {
	if j, ok := c.aIdx[name]; ok {
		return j
	}
	return -1
}

func (c *Cube) check(i, j, p int) error {
	if i < 0 || i >= len(c.regions) {
		return fmt.Errorf("%w: region %d of %d", ErrOutOfRange, i, len(c.regions))
	}
	if j < 0 || j >= len(c.activities) {
		return fmt.Errorf("%w: activity %d of %d", ErrOutOfRange, j, len(c.activities))
	}
	if p < 0 || p >= c.procs {
		return fmt.Errorf("%w: processor %d of %d", ErrOutOfRange, p, c.procs)
	}
	return nil
}

// Set stores t_ijp. The time must be nonnegative.
func (c *Cube) Set(i, j, p int, t float64) error {
	if err := c.check(i, j, p); err != nil {
		return err
	}
	if badTime(t) {
		return fmt.Errorf("%w: %g at (%d, %d, %d)", ErrNegativeTime, t, i, j, p)
	}
	c.times[i][j][p] = t
	c.invalidate()
	return nil
}

// Add accumulates t onto t_ijp; instrumentation uses this to fold repeated
// executions of a region into the cube.
func (c *Cube) Add(i, j, p int, t float64) error {
	if err := c.check(i, j, p); err != nil {
		return err
	}
	if badTime(t) {
		return fmt.Errorf("%w: %g at (%d, %d, %d)", ErrNegativeTime, t, i, j, p)
	}
	c.times[i][j][p] += t
	c.invalidate()
	return nil
}

// At returns t_ijp.
func (c *Cube) At(i, j, p int) (float64, error) {
	if err := c.check(i, j, p); err != nil {
		return 0, err
	}
	return c.times[i][j][p], nil
}

// ProcTimes returns a copy of the P-vector t_ij* for region i and activity
// j: the times spent by each processor in that activity of that region.
func (c *Cube) ProcTimes(i, j int) ([]float64, error) {
	if err := c.check(i, j, 0); err != nil {
		return nil, err
	}
	return append([]float64(nil), c.times[i][j]...), nil
}

// ProcTimesInto copies the P-vector t_ij* into dst, reusing its capacity,
// and returns the resulting slice of length P. It is the borrow-style,
// allocation-free counterpart of ProcTimes for hot loops that sweep the
// cube with a per-worker scratch buffer.
func (c *Cube) ProcTimesInto(i, j int, dst []float64) ([]float64, error) {
	if err := c.check(i, j, 0); err != nil {
		return nil, err
	}
	return append(dst[:0], c.times[i][j]...), nil
}

// SumProcTimes returns the sum over processors of t_ijp for region i and
// activity j (aggregate processor-seconds in the cell).
func (c *Cube) SumProcTimes(i, j int) (float64, error) {
	if err := c.check(i, j, 0); err != nil {
		return 0, err
	}
	return c.marginals().cellSum[i][j], nil
}

// CellTime returns t_ij, the wall clock time of activity j in region i. The
// processors execute a region concurrently, so the region's wall clock time
// is on the scale of one processor's timeline, not the sum of all of them:
// t_ij is the mean over processors of t_ijp. (The paper's published Table 1
// follows this convention — the per-loop times are commensurate with the
// per-processor wall clock times quoted in Section 4.)
func (c *Cube) CellTime(i, j int) (float64, error) {
	s, err := c.SumProcTimes(i, j)
	if err != nil {
		return 0, err
	}
	return s / float64(c.procs), nil
}

// RegionTime returns t_i, the wall clock time of region i: the sum over
// activities of the cell times.
func (c *Cube) RegionTime(i int) (float64, error) {
	if i < 0 || i >= len(c.regions) {
		return 0, fmt.Errorf("%w: region %d of %d", ErrOutOfRange, i, len(c.regions))
	}
	return c.marginals().regionTime[i], nil
}

// ActivityTime returns T_j, the wall clock time of activity j: the sum over
// regions of the cell times.
func (c *Cube) ActivityTime(j int) (float64, error) {
	if j < 0 || j >= len(c.activities) {
		return 0, fmt.Errorf("%w: activity %d of %d", ErrOutOfRange, j, len(c.activities))
	}
	return c.marginals().activityTime[j], nil
}

// ProcRegionTime returns the time spent by processor p across all
// activities of region i: sum_j t_ijp. The processor view standardizes over
// this sum.
func (c *Cube) ProcRegionTime(i, p int) (float64, error) {
	if err := c.check(i, 0, p); err != nil {
		return 0, err
	}
	return c.marginals().procRegion[i][p], nil
}

// ProcTotalTime returns the total instrumented time of processor p across
// all regions and activities.
func (c *Cube) ProcTotalTime(p int) (float64, error) {
	if err := c.check(0, 0, p); err != nil {
		return 0, err
	}
	return c.marginals().procTotal[p], nil
}

// RegionsTotal returns the sum of the region wall clock times (the
// instrumented part of the program, in wall-clock scale).
func (c *Cube) RegionsTotal() float64 {
	return c.marginals().regionsTotal
}

// SetProgramTime records the wall clock time T of the whole program. The
// scaled indices SID divide by T, so a program with uninstrumented parts
// should set it explicitly; passing 0 reverts to the sum of the regions. It
// rejects negative values and values smaller than the instrumented total.
func (c *Cube) SetProgramTime(t float64) error {
	if badTime(t) {
		return fmt.Errorf("%w: program time %g", ErrNegativeTime, t)
	}
	if t != 0 {
		if total := c.RegionsTotal(); t < total-1e-9 {
			return fmt.Errorf("trace: program time %g smaller than instrumented total %g", t, total)
		}
	}
	c.programTime = t
	return nil
}

// ProgramTime returns the wall clock time T of the whole program: the value
// recorded with SetProgramTime, or the sum of the regions when none was
// recorded.
func (c *Cube) ProgramTime() float64 {
	if c.programTime > 0 {
		return c.programTime
	}
	return c.RegionsTotal()
}

// HasActivity reports whether activity j is performed at all within region
// i, i.e. t_ij > 0. Absent activities show as "-" in the paper's tables and
// have undefined dispersion indices.
func (c *Cube) HasActivity(i, j int) (bool, error) {
	t, err := c.CellTime(i, j)
	if err != nil {
		return false, err
	}
	return t > 0, nil
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	out, err := NewCube(c.regions, c.activities, c.procs)
	if err != nil {
		// The receiver was validated at construction; reconstructing
		// from its own fields cannot fail.
		panic(fmt.Sprintf("trace: cloning valid cube failed: %v", err))
	}
	for i := range c.times {
		for j := range c.times[i] {
			copy(out.times[i][j], c.times[i][j])
		}
	}
	out.programTime = c.programTime
	return out
}

// SameShape reports whether two cubes share dimensions and names, so
// their cells correspond index for index. A nil cube has no shape.
func SameShape(a, b *Cube) bool {
	return a != nil && b != nil && a.procs == b.procs &&
		slices.Equal(a.regions, b.regions) && slices.Equal(a.activities, b.activities)
}

// EqualWithin reports whether two cubes have identical shape and names and
// all times (including the program time) within tol of each other.
func (c *Cube) EqualWithin(other *Cube, tol float64) bool {
	if !SameShape(c, other) {
		return false
	}
	if math.Abs(c.ProgramTime()-other.ProgramTime()) > tol {
		return false
	}
	for i := range c.times {
		for j := range c.times[i] {
			for p := range c.times[i][j] {
				if math.Abs(c.times[i][j][p]-other.times[i][j][p]) > tol {
					return false
				}
			}
		}
	}
	return true
}

// Scale multiplies every time in the cube (and the recorded program time)
// by factor, which must be positive. Standardized analyses are invariant
// under Scale; tests rely on this.
func (c *Cube) Scale(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("trace: scale factor %g must be positive", factor)
	}
	for i := range c.times {
		for j := range c.times[i] {
			for p := range c.times[i][j] {
				c.times[i][j][p] *= factor
			}
		}
	}
	c.programTime *= factor
	c.invalidate()
	return nil
}

// SubCube returns a new cube restricted to the given region indices (in
// the given order). The program time carries over unchanged, so shares
// computed on the sub-cube remain relative to the whole program.
func (c *Cube) SubCube(regions []int) (*Cube, error) {
	if len(regions) == 0 {
		return nil, ErrNoRegions
	}
	names := make([]string, len(regions))
	for k, i := range regions {
		if i < 0 || i >= len(c.regions) {
			return nil, fmt.Errorf("%w: region %d of %d", ErrOutOfRange, i, len(c.regions))
		}
		names[k] = c.regions[i]
	}
	out, err := NewCube(names, c.activities, c.procs)
	if err != nil {
		return nil, err
	}
	for k, i := range regions {
		for j := range c.activities {
			copy(out.times[k][j], c.times[i][j])
		}
	}
	if c.programTime > 0 {
		if err := out.SetProgramTime(c.programTime); err != nil {
			return nil, err
		}
	}
	return out, nil
}
