package trace

import (
	"errors"
	"fmt"
)

// ErrShapeMismatch is returned when two cubes being combined have
// different dimensions or names.
var ErrShapeMismatch = errors.New("trace: cube shapes differ")

// SameShape returns nil when two cubes share dimensions and names, so
// their cells correspond index for index. Otherwise it returns an error:
// one wrapping ErrShapeMismatch that names the first difference, or one
// reporting a nil cube.
func SameShape(a, b *Cube) error {
	if a == nil || b == nil {
		return errors.New("trace: nil cube")
	}
	if a.procs != b.procs || len(a.regions) != len(b.regions) || len(a.activities) != len(b.activities) {
		return fmt.Errorf("%w: %dx%dx%d vs %dx%dx%d", ErrShapeMismatch,
			len(a.regions), len(a.activities), a.procs,
			len(b.regions), len(b.activities), b.procs)
	}
	for i, r := range a.regions {
		if b.regions[i] != r {
			return fmt.Errorf("%w: region %d is %q vs %q", ErrShapeMismatch, i, r, b.regions[i])
		}
	}
	for j, act := range a.activities {
		if b.activities[j] != act {
			return fmt.Errorf("%w: activity %d is %q vs %q", ErrShapeMismatch, j, act, b.activities[j])
		}
	}
	return nil
}

// Merge returns a new cube with the cell-wise sum of the two cubes (e.g.
// folding repeated runs together). Program times add.
func Merge(a, b *Cube) (*Cube, error) {
	if err := SameShape(a, b); err != nil {
		return nil, err
	}
	out := a.Clone()
	for i := range out.times {
		for j := range out.times[i] {
			for p := range out.times[i][j] {
				out.times[i][j][p] += b.times[i][j][p]
			}
		}
	}
	out.invalidate() // times were written directly, not through Set/Add
	total := a.ProgramTime() + b.ProgramTime()
	if err := out.SetProgramTime(total); err != nil {
		return nil, err
	}
	return out, nil
}

// CellDelta is one entry of a cube comparison.
type CellDelta struct {
	// Region, Activity index the cell.
	Region, Activity int
	// Before and After are the cell wall clock times t_ij.
	Before, After float64
}

// Change returns After - Before.
func (d CellDelta) Change() float64 { return d.After - d.Before }

// RelChange returns the relative change, or 0 when Before is 0.
func (d CellDelta) RelChange() float64 {
	if d.Before == 0 {
		return 0
	}
	return (d.After - d.Before) / d.Before
}

// Diff compares two same-shaped cubes cell by cell (before vs after a
// tuning step, in the paper's repair/verification loop) and reports the
// per-cell wall clock changes plus the program-time change.
type Diff struct {
	// Cells holds one delta per (region, activity), region-major.
	Cells []CellDelta
	// ProgramBefore and ProgramAfter are the program wall clock times.
	ProgramBefore, ProgramAfter float64
}

// Speedup returns before/after program time; > 1 means the change helped.
func (d Diff) Speedup() float64 {
	if d.ProgramAfter == 0 {
		return 0
	}
	return d.ProgramBefore / d.ProgramAfter
}

// Compare builds the Diff of two cubes.
func Compare(before, after *Cube) (*Diff, error) {
	if err := SameShape(before, after); err != nil {
		return nil, err
	}
	d := &Diff{
		ProgramBefore: before.ProgramTime(),
		ProgramAfter:  after.ProgramTime(),
	}
	for i := range before.regions {
		for j := range before.activities {
			tb, err := before.CellTime(i, j)
			if err != nil {
				return nil, err
			}
			ta, err := after.CellTime(i, j)
			if err != nil {
				return nil, err
			}
			d.Cells = append(d.Cells, CellDelta{Region: i, Activity: j, Before: tb, After: ta})
		}
	}
	return d, nil
}

// MergeRegions returns a new cube in which the named groups of regions
// are combined into single regions (times added per activity and
// processor). Groups map the new region name to the member indices; the
// result contains the groups in the given order followed by ungrouped
// regions in cube order. Coarsening regions into phases lets the
// methodology run at a higher altitude (e.g. "solver" vs "I/O" instead
// of seven loops).
func (c *Cube) MergeRegions(order []string, groups map[string][]int) (*Cube, error) {
	if len(groups) == 0 {
		return nil, errors.New("trace: no groups to merge")
	}
	if len(order) != len(groups) {
		return nil, fmt.Errorf("trace: %d ordered names for %d groups", len(order), len(groups))
	}
	used := make([]bool, len(c.regions))
	var names []string
	var members [][]int
	for _, name := range order {
		group, ok := groups[name]
		if !ok {
			return nil, fmt.Errorf("trace: ordered name %q not in groups", name)
		}
		if len(group) == 0 {
			return nil, fmt.Errorf("trace: group %q is empty", name)
		}
		for _, i := range group {
			if i < 0 || i >= len(c.regions) {
				return nil, fmt.Errorf("%w: region %d of %d", ErrOutOfRange, i, len(c.regions))
			}
			if used[i] {
				return nil, fmt.Errorf("%w: region %d in two groups", ErrDuplicateName, i)
			}
			used[i] = true
		}
		names = append(names, name)
		members = append(members, group)
	}
	for i, u := range used {
		if !u {
			names = append(names, c.regions[i])
			members = append(members, []int{i})
		}
	}
	out, err := NewCube(names, c.activities, c.procs)
	if err != nil {
		return nil, err
	}
	for k, group := range members {
		for _, i := range group {
			for j := range c.activities {
				for p := 0; p < c.procs; p++ {
					out.times[k][j][p] += c.times[i][j][p]
				}
			}
		}
	}
	out.invalidate() // times were written directly, not through Set/Add
	if c.programTime > 0 {
		if err := out.SetProgramTime(c.programTime); err != nil {
			return nil, err
		}
	}
	return out, nil
}
