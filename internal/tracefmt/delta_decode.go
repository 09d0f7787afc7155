package tracefmt

import (
	"fmt"
	"math"
	"sort"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// deltaDec consumes one LIFP document. Like the encoder its name table
// and float chain are document-local.
type deltaDec struct {
	reader
	names names
	wprev uint64
}

// vec reads one float vector; maxLen bounds the declared length.
func (d *deltaDec) vec(maxLen int) ([]float64, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: vector length %d exceeds %d", ErrWire, n, maxLen)
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = d.finite(&d.wprev); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finiteNonneg validates a decoded window width (or program time) pattern.
func finiteNonneg(bits uint64, what string) (float64, error) {
	v := math.Float64frombits(bits)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("%w: invalid %s %g", ErrWire, what, v)
	}
	return v, nil
}

// DecodeSnapshot decodes one LIFP document. For a full document base is
// ignored and may be nil. For a delta document base must hold exactly the
// (boot, fromGen) state the delta was encoded against, or ErrDeltaBase is
// returned and the caller should resynchronize with a full fetch.
// Patched sections are built on clones — base is never mutated, so the
// caller's cached state stays valid if decoding fails midway — but a
// section the delta marks unchanged is returned as base's own pointer;
// callers must treat decoded states as immutable.
func DecodeSnapshot(data []byte, base *DeltaState) (*DeltaState, error) {
	if len(data) < len(DeltaMagic) || string(data[:len(DeltaMagic)]) != DeltaMagic {
		return nil, fmt.Errorf("%w: want %q", ErrBadMagic, DeltaMagic)
	}
	d := &deltaDec{reader: reader{buf: data[len(DeltaMagic):]}}
	ver, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != DeltaVersion {
		return nil, fmt.Errorf("%w: delta version %d, support %d", ErrBadVersion, ver, DeltaVersion)
	}
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	boot, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	gen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	out := &DeltaState{Boot: boot, Gen: gen}
	switch kind {
	case deltaKindFull:
		if out.Cube, err = d.cubeSection(); err != nil {
			return nil, err
		}
		if out.Series, err = d.seriesSection(); err != nil {
			return nil, err
		}
	case deltaKindDelta:
		fromGen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if base == nil || base.Boot != boot || base.Gen != fromGen {
			return nil, ErrDeltaBase
		}
		if out.Cube, err = d.cubeOp(base.Cube); err != nil {
			return nil, err
		}
		if out.Series, err = d.seriesOp(base.Series); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: document kind %#x", ErrWire, kind)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(d.buf))
	}
	return out, nil
}

// cubeSection reads the full-document cube section (absent or full).
func (d *deltaDec) cubeSection() (*trace.Cube, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case deltaOpAbsent:
		return nil, nil
	case deltaOpPresent:
		return d.cubeFull()
	}
	return nil, fmt.Errorf("%w: cube section tag %#x", ErrWire, tag)
}

// seriesSection reads the full-document series section.
func (d *deltaDec) seriesSection() (*temporal.Series, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case deltaOpAbsent:
		return nil, nil
	case deltaOpPresent:
		return d.seriesFull()
	}
	return nil, fmt.Errorf("%w: series section tag %#x", ErrWire, tag)
}

// cubeOp applies a delta-document cube operation against base.
func (d *deltaDec) cubeOp(base *trace.Cube) (*trace.Cube, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case deltaOpUnchanged:
		return base, nil
	case deltaOpCleared:
		return nil, nil
	case deltaOpReplace:
		return d.cubeFull()
	case deltaOpPresent:
		if base == nil {
			return nil, fmt.Errorf("%w: cube patch with no base cube", ErrWire)
		}
		return d.cubePatch(base)
	}
	return nil, fmt.Errorf("%w: cube op %#x", ErrWire, tag)
}

// seriesOp applies a delta-document series operation against base.
func (d *deltaDec) seriesOp(base *temporal.Series) (*temporal.Series, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case deltaOpUnchanged:
		return base, nil
	case deltaOpCleared:
		return nil, nil
	case deltaOpReplace:
		return d.seriesFull()
	case deltaOpPresent:
		if base == nil {
			return nil, fmt.Errorf("%w: series patch with no base series", ErrWire)
		}
		return d.seriesPatch(base)
	}
	return nil, fmt.Errorf("%w: series op %#x", ErrWire, tag)
}

// setProgram applies a decoded resolved program time: an explicit wall
// clock only when it exceeds the instrumented total, the implicit sum
// otherwise (mirroring how the encoder emitted the resolved value).
func setProgram(c *trace.Cube, pt float64) error {
	if pt > c.RegionsTotal() {
		return c.SetProgramTime(pt)
	}
	return nil
}

// cubeFull decodes a complete cube.
func (d *deltaDec) cubeFull() (*trace.Cube, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	k, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || k == 0 || p == 0 || n > maxDeltaCells || k > maxDeltaCells || p > maxDeltaCells ||
		n*k > maxDeltaCells/p {
		return nil, fmt.Errorf("%w: cube dims %dx%dx%d", ErrWire, n, k, p)
	}
	if n+k > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: name count exceeds remaining input", ErrWire)
	}
	regions := make([]string, n)
	for i := range regions {
		if regions[i], err = d.name(&d.names); err != nil {
			return nil, err
		}
	}
	activities := make([]string, k)
	for j := range activities {
		if activities[j], err = d.name(&d.names); err != nil {
			return nil, err
		}
	}
	cube, err := trace.NewCube(regions, activities, int(p))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	ptBits, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	pt, err := finiteNonneg(ptBits, "program time")
	if err != nil {
		return nil, err
	}
	if err := d.cells(cube, false); err != nil {
		return nil, err
	}
	if err := setProgram(cube, pt); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return cube, nil
}

// cubePatch applies changed cells and the program-time delta to a clone
// of base.
func (d *deltaDec) cubePatch(base *trace.Cube) (*trace.Cube, error) {
	cube := base.Clone()
	ptBits, err := d.bitDelta(math.Float64bits(base.ProgramTime()))
	if err != nil {
		return nil, err
	}
	pt, err := finiteNonneg(ptBits, "program time")
	if err != nil {
		return nil, err
	}
	if err := d.cells(cube, true); err != nil {
		return nil, err
	}
	// Clear any stale explicit program time before re-resolving: the
	// patched instrumented total may have grown past the old wall clock.
	if err := cube.SetProgramTime(0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if err := setProgram(cube, pt); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return cube, nil
}

// cells decodes a gap-coded cell list into cube. Each value's bit delta
// is against the cell's current value in a patch, and against the
// previously decoded cell (cold start 0) in a full cube.
func (d *deltaDec) cells(cube *trace.Cube, patch bool) error {
	k, p := cube.NumActivities(), cube.NumProcs()
	kp := int64(k) * int64(p)
	total := int64(cube.NumRegions()) * kp
	count, err := d.count(2)
	if err != nil {
		return err
	}
	prevFlat, prevBits := int64(-1), uint64(0)
	for c := 0; c < count; c++ {
		gap, err := d.uvarint()
		if err != nil {
			return err
		}
		if gap == 0 || gap > uint64(total) {
			return fmt.Errorf("%w: cell gap %d", ErrWire, gap)
		}
		flat := prevFlat + int64(gap)
		if flat >= total {
			return fmt.Errorf("%w: cell index %d beyond %d", ErrWire, flat, total)
		}
		i, j, q := int(flat/kp), int(flat%kp)/p, int(flat%int64(p))
		if patch {
			old, err := cube.At(i, j, q)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrWire, err)
			}
			prevBits = math.Float64bits(old)
		}
		t, err := d.finite(&prevBits)
		if err != nil {
			return err
		}
		if err := cube.Set(i, j, q, t); err != nil {
			return fmt.Errorf("%w: %v", ErrWire, err)
		}
		prevFlat = flat
	}
	return nil
}

// windowVec decodes one window vector; procs bounds vector lengths.
func (d *deltaDec) windowVec(prevIdx int64, procs int) (temporal.WindowVector, int64, error) {
	var v temporal.WindowVector
	idxDelta, err := d.varint()
	if err != nil {
		return v, 0, err
	}
	idx := prevIdx + idxDelta
	if idx < 0 || idx > maxDeltaWindows {
		return v, 0, fmt.Errorf("%w: window index %d", ErrWire, idx)
	}
	v.Index = int(idx)
	events, err := d.uvarint()
	if err != nil {
		return v, 0, err
	}
	if events > math.MaxInt32 {
		return v, 0, fmt.Errorf("%w: window event count %d", ErrWire, events)
	}
	v.Events = int(events)
	flags, err := d.byte()
	if err != nil {
		return v, 0, err
	}
	if flags&^(deltaFlagDominant|deltaFlagPerActivity|deltaFlagPerRegion) != 0 {
		return v, 0, fmt.Errorf("%w: window flags %#x", ErrWire, flags)
	}
	if flags&deltaFlagDominant != 0 {
		if v.Dominant, err = d.name(&d.names); err != nil {
			return v, 0, err
		}
	}
	if v.ProcSeconds, err = d.vec(procs); err != nil {
		return v, 0, err
	}
	for _, dim := range []struct {
		flag byte
		dst  *map[string][]float64
	}{
		{deltaFlagPerActivity, &v.PerActivity},
		{deltaFlagPerRegion, &v.PerRegion},
	} {
		if flags&dim.flag == 0 {
			continue
		}
		n, err := d.count(2)
		if err != nil {
			return v, 0, err
		}
		m := make(map[string][]float64, n)
		for e := 0; e < n; e++ {
			name, err := d.name(&d.names)
			if err != nil {
				return v, 0, err
			}
			if _, dup := m[name]; dup {
				return v, 0, fmt.Errorf("%w: duplicate window key %q", ErrWire, name)
			}
			if m[name], err = d.vec(procs); err != nil {
				return v, 0, err
			}
		}
		*dim.dst = m
	}
	return v, idx, nil
}

// windowList decodes a delta-chained list of window vectors.
func (d *deltaDec) windowList(procs int) ([]temporal.WindowVector, error) {
	n, err := d.count(3)
	if err != nil {
		return nil, err
	}
	if n > maxDeltaWindows {
		return nil, fmt.Errorf("%w: %d windows", ErrWire, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]temporal.WindowVector, 0, n)
	prevIdx := int64(0)
	for i := 0; i < n; i++ {
		var v temporal.WindowVector
		if v, prevIdx, err = d.windowVec(prevIdx, procs); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// seriesFull decodes a complete window series.
func (d *deltaDec) seriesFull() (*temporal.Series, error) {
	winBits, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	window, err := finiteNonneg(winBits, "window width")
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("%w: window width %g", ErrWire, window)
	}
	procs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if procs == 0 || procs > maxDim {
		return nil, fmt.Errorf("%w: series procs %d", ErrWire, procs)
	}
	ringStart, err := d.varint()
	if err != nil {
		return nil, err
	}
	if ringStart < 0 || ringStart > maxDeltaWindows {
		return nil, fmt.Errorf("%w: ring start %d", ErrWire, ringStart)
	}
	coarseBits, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	coarseWindow, err := finiteNonneg(coarseBits, "coarse window width")
	if err != nil {
		return nil, err
	}
	s := &temporal.Series{
		Window:       window,
		Procs:        int(procs),
		RingStart:    int(ringStart),
		CoarseWindow: coarseWindow,
	}
	if s.Windows, err = d.windowList(s.Procs); err != nil {
		return nil, err
	}
	if s.Coarse, err = d.windowList(s.Procs); err != nil {
		return nil, err
	}
	return s, nil
}

// seriesPatch applies window upserts and removals to a copy of base.
func (d *deltaDec) seriesPatch(base *temporal.Series) (*temporal.Series, error) {
	s := &temporal.Series{
		Window:       base.Window,
		Procs:        base.Procs,
		CoarseWindow: base.CoarseWindow,
		Coarse:       base.Coarse,
	}
	ringDelta, err := d.varint()
	if err != nil {
		return nil, err
	}
	ringStart := int64(base.RingStart) + ringDelta
	if ringStart < 0 || ringStart > maxDeltaWindows {
		return nil, fmt.Errorf("%w: ring start %d", ErrWire, ringStart)
	}
	s.RingStart = int(ringStart)
	coarseTag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch coarseTag {
	case 0:
	case 1:
		coarseBits, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if s.CoarseWindow, err = finiteNonneg(coarseBits, "coarse window width"); err != nil {
			return nil, err
		}
		if s.Coarse, err = d.windowList(s.Procs); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: coarse tag %#x", ErrWire, coarseTag)
	}
	removedCount, err := d.count(1)
	if err != nil {
		return nil, err
	}
	removed := make(map[int]bool, removedCount)
	prevIdx := int64(0)
	for i := 0; i < removedCount; i++ {
		delta, err := d.varint()
		if err != nil {
			return nil, err
		}
		idx := prevIdx + delta
		if idx < 0 || idx > maxDeltaWindows {
			return nil, fmt.Errorf("%w: removed window index %d", ErrWire, idx)
		}
		removed[int(idx)] = true
		prevIdx = idx
	}
	changed, err := d.windowList(base.Procs)
	if err != nil {
		return nil, err
	}
	merged := make(map[int]temporal.WindowVector, len(base.Windows)+len(changed))
	for _, v := range base.Windows {
		if !removed[v.Index] {
			merged[v.Index] = v
		}
	}
	for _, v := range changed {
		merged[v.Index] = v
	}
	if len(merged) > 0 {
		s.Windows = make([]temporal.WindowVector, 0, len(merged))
		for _, v := range merged {
			s.Windows = append(s.Windows, v)
		}
		sort.Slice(s.Windows, func(i, j int) bool { return s.Windows[i].Index < s.Windows[j].Index })
	}
	return s, nil
}
