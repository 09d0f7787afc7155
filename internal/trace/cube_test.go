package trace

import (
	"errors"
	"math"
	"testing"
)

func mustCube(t *testing.T, regions, activities []string, procs int) *Cube {
	t.Helper()
	c, err := NewCube(regions, activities, procs)
	if err != nil {
		t.Fatalf("NewCube: %v", err)
	}
	return c
}

func TestNewCubeValidation(t *testing.T) {
	cases := []struct {
		name       string
		regions    []string
		activities []string
		procs      int
		wantErr    error
	}{
		{"ok", []string{"l1"}, []string{"comp"}, 2, nil},
		{"no regions", nil, []string{"comp"}, 2, ErrNoRegions},
		{"no activities", []string{"l1"}, nil, 2, ErrNoActivities},
		{"no procs", []string{"l1"}, []string{"comp"}, 0, ErrNoProcessors},
		{"dup region", []string{"l1", "l1"}, []string{"comp"}, 2, ErrDuplicateName},
		{"dup activity", []string{"l1"}, []string{"c", "c"}, 2, ErrDuplicateName},
	}
	for _, c := range cases {
		_, err := NewCube(c.regions, c.activities, c.procs)
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}
}

func TestCubeAccessors(t *testing.T) {
	c := mustCube(t, []string{"l1", "l2"}, []string{"comp", "p2p"}, 4)
	if c.NumRegions() != 2 || c.NumActivities() != 2 || c.NumProcs() != 4 {
		t.Fatalf("dims = %d, %d, %d", c.NumRegions(), c.NumActivities(), c.NumProcs())
	}
	if c.RegionIndex("l2") != 1 || c.RegionIndex("nope") != -1 {
		t.Error("RegionIndex wrong")
	}
	if c.ActivityIndex("p2p") != 1 || c.ActivityIndex("nope") != -1 {
		t.Error("ActivityIndex wrong")
	}
	rs, as := c.Regions(), c.Activities()
	rs[0] = "mutated"
	as[0] = "mutated"
	if c.RegionIndex("l1") != 0 || c.ActivityIndex("comp") != 0 {
		t.Error("Regions/Activities should return copies")
	}
}

func TestSetAddAt(t *testing.T) {
	c := mustCube(t, []string{"l1"}, []string{"comp"}, 2)
	if err := c.Set(0, 0, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(0, 0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := c.At(0, 0, 0)
	if err != nil || got != 2 {
		t.Errorf("At = %g, %v; want 2", got, err)
	}
	if err := c.Set(0, 0, 0, -1); !errors.Is(err, ErrNegativeTime) {
		t.Errorf("negative Set err = %v", err)
	}
	if err := c.Add(0, 0, 0, -1); !errors.Is(err, ErrNegativeTime) {
		t.Errorf("negative Add err = %v", err)
	}
	for _, bad := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 2}} {
		if err := c.Set(bad[0], bad[1], bad[2], 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Set%v err = %v", bad, err)
		}
		if _, err := c.At(bad[0], bad[1], bad[2]); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("At%v err = %v", bad, err)
		}
	}
}

// fillCube sets t_ijp = base + i*100 + j*10 + p for deterministic marginal
// checks.
func fillCube(t *testing.T, c *Cube) {
	t.Helper()
	for i := 0; i < c.NumRegions(); i++ {
		for j := 0; j < c.NumActivities(); j++ {
			for p := 0; p < c.NumProcs(); p++ {
				if err := c.Set(i, j, p, float64(1+i*100+j*10+p)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestMarginals(t *testing.T) {
	c := mustCube(t, []string{"l1", "l2"}, []string{"a", "b"}, 2)
	fillCube(t, c)
	// Cell (0,0): procs 1, 2 -> sum 3, mean 1.5.
	sum, err := c.SumProcTimes(0, 0)
	if err != nil || sum != 3 {
		t.Errorf("SumProcTimes = %g, %v", sum, err)
	}
	cell, err := c.CellTime(0, 0)
	if err != nil || cell != 1.5 {
		t.Errorf("CellTime = %g, %v", cell, err)
	}
	// Region 0: cells (0,0) mean 1.5 and (0,1) procs 11,12 mean 11.5.
	reg, err := c.RegionTime(0)
	if err != nil || reg != 13 {
		t.Errorf("RegionTime = %g, %v", reg, err)
	}
	// Activity 0: cells (0,0) mean 1.5 and (1,0) procs 101,102 mean 101.5.
	act, err := c.ActivityTime(0)
	if err != nil || act != 103 {
		t.Errorf("ActivityTime = %g, %v", act, err)
	}
	// Processor-region: region 0, proc 1 -> 2 + 12.
	pr, err := c.ProcRegionTime(0, 1)
	if err != nil || pr != 14 {
		t.Errorf("ProcRegionTime = %g, %v", pr, err)
	}
	// Processor total: proc 0 -> 1 + 11 + 101 + 111 = 224.
	pt, err := c.ProcTotalTime(0)
	if err != nil || pt != 224 {
		t.Errorf("ProcTotalTime = %g, %v", pt, err)
	}
	// RegionsTotal: region 0 (13) + region 1 (101.5 + 111.5 = 213).
	if got := c.RegionsTotal(); got != 226 {
		t.Errorf("RegionsTotal = %g, want 226", got)
	}
	if _, err := c.RegionTime(5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("RegionTime range err = %v", err)
	}
	if _, err := c.ActivityTime(5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ActivityTime range err = %v", err)
	}
	if _, err := c.ProcRegionTime(0, 9); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ProcRegionTime range err = %v", err)
	}
	if _, err := c.ProcTotalTime(9); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ProcTotalTime range err = %v", err)
	}
	if _, err := c.SumProcTimes(9, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("SumProcTimes range err = %v", err)
	}
}

func TestMarginalConsistency(t *testing.T) {
	// Sum of region times == sum of activity times == RegionsTotal.
	c := mustCube(t, []string{"a", "b", "c"}, []string{"x", "y"}, 3)
	fillCube(t, c)
	var regSum, actSum float64
	for i := 0; i < c.NumRegions(); i++ {
		v, err := c.RegionTime(i)
		if err != nil {
			t.Fatal(err)
		}
		regSum += v
	}
	for j := 0; j < c.NumActivities(); j++ {
		v, err := c.ActivityTime(j)
		if err != nil {
			t.Fatal(err)
		}
		actSum += v
	}
	if math.Abs(regSum-actSum) > 1e-9 || math.Abs(regSum-c.RegionsTotal()) > 1e-9 {
		t.Errorf("marginals disagree: regions %g, activities %g, total %g", regSum, actSum, c.RegionsTotal())
	}
}

func TestProcTimes(t *testing.T) {
	c := mustCube(t, []string{"l1"}, []string{"a"}, 3)
	fillCube(t, c)
	ts, err := c.ProcTimes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0] != 1 || ts[2] != 3 {
		t.Errorf("ProcTimes = %v", ts)
	}
	ts[0] = 99
	if v, _ := c.At(0, 0, 0); v != 1 {
		t.Error("ProcTimes should return a copy")
	}
	if _, err := c.ProcTimes(7, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("range err = %v", err)
	}
}

func TestProgramTime(t *testing.T) {
	c := mustCube(t, []string{"l1"}, []string{"a"}, 2)
	if err := c.Set(0, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(0, 0, 1, 6); err != nil {
		t.Fatal(err)
	}
	// Default: regions total (mean over procs = 5).
	if got := c.ProgramTime(); got != 5 {
		t.Errorf("default ProgramTime = %g, want 5", got)
	}
	if err := c.SetProgramTime(8); err != nil {
		t.Fatal(err)
	}
	if got := c.ProgramTime(); got != 8 {
		t.Errorf("ProgramTime = %g, want 8", got)
	}
	if err := c.SetProgramTime(0); err != nil {
		t.Fatal(err)
	}
	if got := c.ProgramTime(); got != 5 {
		t.Errorf("reset ProgramTime = %g, want 5", got)
	}
	if err := c.SetProgramTime(-1); !errors.Is(err, ErrNegativeTime) {
		t.Errorf("negative program time err = %v", err)
	}
	if err := c.SetProgramTime(2); err == nil {
		t.Error("program time below instrumented total should fail")
	}
}

func TestHasActivity(t *testing.T) {
	c := mustCube(t, []string{"l1"}, []string{"a", "b"}, 2)
	if err := c.Set(0, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	has, err := c.HasActivity(0, 0)
	if err != nil || !has {
		t.Errorf("HasActivity(0,0) = %v, %v", has, err)
	}
	has, err = c.HasActivity(0, 1)
	if err != nil || has {
		t.Errorf("HasActivity(0,1) = %v, %v", has, err)
	}
	if _, err := c.HasActivity(3, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("range err = %v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	c := mustCube(t, []string{"l1", "l2"}, []string{"a"}, 2)
	fillCube(t, c)
	if err := c.SetProgramTime(500); err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	if !c.EqualWithin(d, 0) {
		t.Fatal("clone should equal original")
	}
	if err := d.Set(0, 0, 0, 42); err != nil {
		t.Fatal(err)
	}
	if c.EqualWithin(d, 0) {
		t.Error("mutated clone should differ")
	}
	if v, _ := c.At(0, 0, 0); v == 42 {
		t.Error("clone mutation leaked into original")
	}
	if c.EqualWithin(nil, 0) {
		t.Error("EqualWithin(nil) should be false")
	}
	other := mustCube(t, []string{"x", "l2"}, []string{"a"}, 2)
	if c.EqualWithin(other, 1e9) {
		t.Error("different region names should not be equal")
	}
}

func TestEqualWithinProgramTime(t *testing.T) {
	a := mustCube(t, []string{"l"}, []string{"c"}, 1)
	b := mustCube(t, []string{"l"}, []string{"c"}, 1)
	if err := a.Set(0, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Set(0, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.SetProgramTime(10); err != nil {
		t.Fatal(err)
	}
	if a.EqualWithin(b, 1e-9) {
		t.Error("different program times should not be equal")
	}
}

func TestSameShape(t *testing.T) {
	a := mustCube(t, []string{"r1", "r2"}, []string{"x", "y"}, 2)
	fillCube(t, a)
	if !SameShape(a, mustCube(t, []string{"r1", "r2"}, []string{"x", "y"}, 2)) {
		t.Error("same dimensions and names, different times: not the same shape")
	}
	for i, c := range []*Cube{
		mustCube(t, []string{"r1"}, []string{"x", "y"}, 2),
		mustCube(t, []string{"r1", "other"}, []string{"x", "y"}, 2),
		mustCube(t, []string{"r1", "r2"}, []string{"x", "z"}, 2),
		mustCube(t, []string{"r1", "r2"}, []string{"x", "y"}, 3),
		nil,
	} {
		if SameShape(a, c) || SameShape(c, a) {
			t.Errorf("case %d: shapes reported equal", i)
		}
	}
}

func TestScale(t *testing.T) {
	c := mustCube(t, []string{"l1"}, []string{"a"}, 2)
	fillCube(t, c)
	if err := c.SetProgramTime(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Scale(2); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.At(0, 0, 1); v != 4 {
		t.Errorf("scaled value = %g, want 4", v)
	}
	if c.ProgramTime() != 20 {
		t.Errorf("scaled program time = %g, want 20", c.ProgramTime())
	}
	if err := c.Scale(0); err == nil {
		t.Error("zero scale should fail")
	}
	if err := c.Scale(-1); err == nil {
		t.Error("negative scale should fail")
	}
}

func TestSubCube(t *testing.T) {
	c := mustCube(t, []string{"a", "b", "c"}, []string{"x", "y"}, 2)
	fillCube(t, c)
	if err := c.SetProgramTime(5000); err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubCube([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRegions() != 2 || sub.RegionIndex("c") != 0 || sub.RegionIndex("a") != 1 {
		t.Fatalf("sub regions = %v", sub.Regions())
	}
	want, _ := c.At(2, 1, 1)
	got, err := sub.At(0, 1, 1)
	if err != nil || got != want {
		t.Errorf("sub cell = %g, want %g", got, want)
	}
	if sub.ProgramTime() != 5000 {
		t.Errorf("sub program time = %g", sub.ProgramTime())
	}
	// Mutating the sub-cube must not touch the original.
	if err := sub.Set(0, 0, 0, 999); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.At(2, 0, 0); v == 999 {
		t.Error("SubCube shares storage with the original")
	}
	if _, err := c.SubCube(nil); !errors.Is(err, ErrNoRegions) {
		t.Errorf("empty selection err = %v", err)
	}
	if _, err := c.SubCube([]int{7}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("range err = %v", err)
	}
	if _, err := c.SubCube([]int{0, 0}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate selection err = %v", err)
	}
}

// TestCubeRejectsNonFiniteTimes guards the NaN hole in the time checks:
// `t < 0` is false for NaN, so the old checks stored NaN (and +Inf)
// times, poisoning every marginal and index downstream.
func TestCubeRejectsNonFiniteTimes(t *testing.T) {
	c, err := NewCube([]string{"r"}, []string{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := c.Set(0, 0, 0, bad); !errors.Is(err, ErrNegativeTime) {
			t.Errorf("Set(%g) err = %v, want ErrNegativeTime", bad, err)
		}
		if err := c.Add(0, 0, 0, bad); !errors.Is(err, ErrNegativeTime) {
			t.Errorf("Add(%g) err = %v, want ErrNegativeTime", bad, err)
		}
		if err := c.SetProgramTime(bad); !errors.Is(err, ErrNegativeTime) {
			t.Errorf("SetProgramTime(%g) err = %v, want ErrNegativeTime", bad, err)
		}
	}
}
