package tracefmt

// This file defines the LIFP snapshot *delta* format: the document a live
// endpoint serves at /delta so a federator can bring its cached copy of
// the endpoint's state up to date without re-shipping the whole cube and
// window series every interval. It is written in the same primitives as
// the LIWP event wire protocol (codec.go) — uvarints, zigzag varints,
// IEEE-754 bit deltas, name references — but where LIWP is an endless
// stream of raw events, a LIFP document is one self-contained message
// framed by its transport (an HTTP response body): it carries no
// cross-document state, so any document can be decoded in isolation
// given only the base snapshot it names. A full document carrying a cube
// is also a cube file (WriteCube, ReadCube).
//
// # Document layout
//
//	doc    := "LIFP" uvarint(version) byte(kind) uvarint(boot) uvarint(gen) body
//	kind   := 0x01 full | 0x02 delta
//
// Boot and gen identify the snapshot the document brings the receiver to
// — exactly the (Boot, Gen) pair of the publisher's snapshot ETag. A
// *full* document carries the complete cube and series and needs no
// prior state. A *delta* document additionally names the base generation
// it applies to:
//
//	full body  := cubeSection seriesSection
//	delta body := uvarint(fromGen) cubeOp seriesOp
//
// A receiver whose cached state is not exactly (boot, fromGen) must
// discard the delta and resynchronize with a full fetch (ErrDeltaBase);
// the serving side guarantees a changed boot nonce — an endpoint restart
// — is answered with a full document, never a delta across incarnations.
//
// # Sections and operations
//
//	cubeSection   := byte(0)                   // absent (no events yet)
//	               | byte(1) cubeFull
//	seriesSection := byte(0)                   // absent (windowing off)
//	               | byte(1) seriesFull
//	cubeOp        := byte(0)                   // unchanged
//	               | byte(1) cubePatch         // same shape, cells changed
//	               | byte(2) cubeFull          // shape changed: replace
//	               | byte(3)                   // cleared (now absent)
//	seriesOp      := byte(0) | byte(1) seriesPatch | byte(2) seriesFull | byte(3)
//
// A patch is only valid against an identical shape (cube: same region and
// activity tables and processor count; series: same window width and
// processor count); any growth or reshape — new ranks appearing, a region
// union changing under a federator — is transmitted as a replace. At
// steady state shapes are stable and every interval ships a patch whose
// size is proportional to what actually changed, which is the entire
// point.
//
//	cubeFull  := uvarint(N) uvarint(K) uvarint(P)
//	             N*stringRef K*stringRef            // region, activity names
//	             uvarint(bits(programTime))
//	             uvarint(nonzeroCells)
//	             nonzeroCells * (uvarint(gap) varint(Δbits))
//	cubePatch := varint(Δbits(programTime))
//	             uvarint(changedCells)
//	             changedCells * (uvarint(gap) varint(Δbits))
//
// Cells walk the cube in ascending flattened index (i*K*P + j*P + p);
// gap is the distance from the previous emitted cell (starting at -1),
// so runs of untouched cells cost nothing. In a full document Δbits
// chains each value against the previously emitted one (cold start 0);
// in a patch Δbits is against the receiver's *current* value of that
// very cell, which the encoder knows because it diffs two snapshots.
//
//	seriesFull  := uvarint(bits(window)) uvarint(procs)
//	               varint(ringStart) uvarint(bits(coarseWindow))
//	               uvarint(len(windows))  windows*
//	               uvarint(len(coarse))   coarse*
//	seriesPatch := varint(ΔringStart)
//	               byte(coarseTag)                  // 0 unchanged | 1 replace
//	               [uvarint(bits(coarseWindow)) uvarint(len) coarse*]
//	               uvarint(removed)  removed * varint(Δindex)
//	               uvarint(changed)  windows*       // upserts, by index
//
// A patched receiver deletes the removed window indices, upserts the
// changed vectors, then — when a coarse tail exists — drops ring windows
// whose index fell below the new ring start (they were decimated into the
// tail). Removals carry the case a federator's merged series shrinks when
// an endpoint goes stale.
//
//	window    := varint(Δindex) uvarint(events) byte(flags)
//	             [stringRef(dominant)]              // flags bit0
//	             vec                                // busy
//	             [uvarint(n) n*(stringRef vec)]     // flags bit1: per-activity
//	             [uvarint(n) n*(stringRef vec)]     // flags bit2: per-region
//	vec       := uvarint(len) len*varint(Δbits)
//
// Window indices delta-chain within their list; float bits chain across
// every vector element of the document (wprev), since consecutive busy
// values share magnitude. Per-activity and per-region entries are sorted
// by name so encoding is deterministic.
//
// # Strings
//
// All names — regions, activities, dominant activities, per-dimension
// keys — share one name table per document; a stringRef is codec.go's
// name reference, bounded as described there.
//
// # Safety
//
// DecodeSnapshot never panics on arbitrary input: every structural
// violation returns an error wrapping ErrWire (or ErrBadMagic /
// ErrBadVersion), decoded values are validated (no NaN/Inf/negative
// times), and decoder allocation is proportional to the input size —
// dimension products are bounded by maxDeltaCells before the cube is
// allocated, and every vector element must be present in the input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// Delta format constants.
const (
	// DeltaMagic opens every snapshot delta document.
	DeltaMagic = "LIFP"
	// DeltaVersion is the delta format version this package speaks.
	DeltaVersion = 1

	// Document kinds.
	deltaKindFull  = 0x01
	deltaKindDelta = 0x02

	// Section / delta operations.
	deltaOpAbsent    = 0x00 // full: section absent; delta: unchanged
	deltaOpPresent   = 0x01 // full: section present; delta: patch
	deltaOpReplace   = 0x02 // delta: full re-encoding follows
	deltaOpCleared   = 0x03 // delta: the section is now absent
	deltaOpUnchanged = deltaOpAbsent

	// Window vector flags.
	deltaFlagDominant    = 1 << 0
	deltaFlagPerActivity = 1 << 1
	deltaFlagPerRegion   = 1 << 2

	// maxDeltaCells bounds N*K*P before a decoded cube is allocated, so a
	// handful of hostile header bytes cannot demand gigabytes. 2^26 cells
	// (512 MiB of float64s) is far beyond any realistic federated cube.
	maxDeltaCells = 1 << 26
	// maxDeltaWindows bounds the declared window counts of one series
	// section.
	maxDeltaWindows = 1 << 22
)

// ErrDeltaBase is returned by DecodeSnapshot when a delta document names
// a base snapshot other than the one the caller holds: the receiver must
// resynchronize with a full fetch. It wraps nothing — a base mismatch is
// a protocol-level state divergence, not input corruption.
var ErrDeltaBase = errors.New("tracefmt: delta base snapshot mismatch")

// DeltaState is the decoded endpoint state a LIFP document transfers: the
// snapshot identity (the ETag pair) plus the two mergeable documents the
// federation layer consumes. Counters (event totals, drop counts) are
// deliberately not part of the format — they are per-process diagnostics,
// not mergeable state.
type DeltaState struct {
	// Boot and Gen identify the snapshot, exactly as in the HTTP ETag.
	Boot, Gen uint64
	// Cube is the measurement cube; nil before any event was folded.
	Cube *trace.Cube
	// Series is the raw window series; nil when windowing is disabled.
	Series *temporal.Series
}

// SnapshotTag formats a snapshot identity as "b<boot hex>-g<gen dec>":
// the snapshot's HTTP ETag without its quotes, and the ?since= value of
// a /delta client holding that snapshot.
func SnapshotTag(boot, gen uint64) string {
	return "b" + strconv.FormatUint(boot, 16) + "-g" + strconv.FormatUint(gen, 10)
}

// ParseSnapshotTag parses a SnapshotTag. The whole string must match:
// anything else, trailing bytes included, reports ok false.
func ParseSnapshotTag(tag string) (boot, gen uint64, ok bool) {
	b, g, found := strings.Cut(tag, "-g")
	if !found || !strings.HasPrefix(b, "b") {
		return 0, 0, false
	}
	boot, errBoot := strconv.ParseUint(b[1:], 16, 64)
	gen, errGen := strconv.ParseUint(g, 10, 64)
	if errBoot != nil || errGen != nil {
		return 0, 0, false
	}
	return boot, gen, true
}

// deltaEnc assembles one document; its name table and float chain are
// document-local.
type deltaEnc struct {
	buf   []byte
	names interner
	wprev uint64 // float bit chain across window vector elements
}

func (e *deltaEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *deltaEnc) varint(v int64)   { e.buf = binary.AppendUvarint(e.buf, zigzag(v)) }
func (e *deltaEnc) byte(b byte)      { e.buf = append(e.buf, b) }

// name appends a reference to s, interning it on first use.
func (e *deltaEnc) name(s string) (err error) {
	e.buf, err = e.names.appendRef(e.buf, s)
	return err
}

// vec appends one float vector as a length plus bit-delta chain.
func (e *deltaEnc) vec(vals []float64) {
	e.uvarint(uint64(len(vals)))
	for _, v := range vals {
		bits := math.Float64bits(v)
		e.buf = appendBitDelta(e.buf, e.wprev, bits)
		e.wprev = bits
	}
}

func (e *deltaEnc) header(kind byte, boot, gen uint64) {
	e.buf = append(e.buf, DeltaMagic...)
	e.uvarint(DeltaVersion)
	e.byte(kind)
	e.uvarint(boot)
	e.uvarint(gen)
}

// EncodeSnapshotFull encodes the state as a self-contained full document.
func EncodeSnapshotFull(cur *DeltaState) ([]byte, error) {
	if cur == nil {
		return nil, errors.New("tracefmt: nil snapshot state")
	}
	e := &deltaEnc{}
	e.header(deltaKindFull, cur.Boot, cur.Gen)
	if cur.Cube == nil {
		e.byte(deltaOpAbsent)
	} else {
		e.byte(deltaOpPresent)
		if err := e.cubeFull(cur.Cube); err != nil {
			return nil, err
		}
	}
	if cur.Series == nil {
		e.byte(deltaOpAbsent)
	} else {
		e.byte(deltaOpPresent)
		if err := e.seriesFull(cur.Series); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

// EncodeSnapshotDelta encodes the difference from prev to cur as a delta
// document: only cells and windows whose content changed are carried, and
// sections whose shape changed are re-encoded whole. Both states must
// come from the same publisher incarnation (equal Boot); the caller is
// expected to serve a full document instead when the boot nonce moved.
// Each state's window series must list its windows in ascending index
// order without repeats, as a fold's series and temporal.Merge output do.
func EncodeSnapshotDelta(prev, cur *DeltaState) ([]byte, error) {
	if prev == nil || cur == nil {
		return nil, errors.New("tracefmt: nil snapshot state")
	}
	if prev.Boot != cur.Boot {
		return nil, fmt.Errorf("tracefmt: delta across boot nonces (%x -> %x)", prev.Boot, cur.Boot)
	}
	e := &deltaEnc{}
	e.header(deltaKindDelta, cur.Boot, cur.Gen)
	e.uvarint(prev.Gen)
	if err := e.cubeDelta(prev.Cube, cur.Cube); err != nil {
		return nil, err
	}
	if err := e.seriesDelta(prev.Series, cur.Series); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// cubeFull encodes a complete cube: dimensions, names, program time, and
// the nonzero cells as a gap/bit-delta list.
func (e *deltaEnc) cubeFull(c *trace.Cube) error {
	n, k, p := c.NumRegions(), c.NumActivities(), c.NumProcs()
	e.uvarint(uint64(n))
	e.uvarint(uint64(k))
	e.uvarint(uint64(p))
	for i := 0; i < n; i++ {
		if err := e.name(c.RegionName(i)); err != nil {
			return err
		}
	}
	for j := 0; j < k; j++ {
		if err := e.name(c.ActivityName(j)); err != nil {
			return err
		}
	}
	e.uvarint(math.Float64bits(c.ProgramTime()))
	// First pass counts, second emits; both walk ascending flat index.
	count := uint64(0)
	var scratch []float64
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			scratch, _ = c.ProcTimesInto(i, j, scratch)
			for _, t := range scratch {
				if t != 0 {
					count++
				}
			}
		}
	}
	e.uvarint(count)
	prevFlat := int64(-1)
	prevBits := uint64(0)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			scratch, _ = c.ProcTimesInto(i, j, scratch)
			base := int64(i)*int64(k)*int64(p) + int64(j)*int64(p)
			for q, t := range scratch {
				if t == 0 {
					continue
				}
				flat := base + int64(q)
				e.uvarint(uint64(flat - prevFlat))
				bits := math.Float64bits(t)
				e.buf = appendBitDelta(e.buf, prevBits, bits)
				prevFlat, prevBits = flat, bits
			}
		}
	}
	return nil
}

// cubeDelta emits the cube operation: unchanged, patch, replace or
// cleared.
func (e *deltaEnc) cubeDelta(prev, cur *trace.Cube) error {
	switch {
	case cur == nil && prev == nil:
		e.byte(deltaOpUnchanged)
		return nil
	case cur == nil:
		e.byte(deltaOpCleared)
		return nil
	case !trace.SameShape(prev, cur):
		e.byte(deltaOpReplace)
		return e.cubeFull(cur)
	}
	// Same shape: walk both cubes and collect changed cells.
	n, k, p := cur.NumRegions(), cur.NumActivities(), cur.NumProcs()
	type change struct {
		flat     int64
		old, new uint64
	}
	var changes []change
	var oldRow, newRow []float64
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			oldRow, _ = prev.ProcTimesInto(i, j, oldRow)
			newRow, _ = cur.ProcTimesInto(i, j, newRow)
			base := int64(i)*int64(k)*int64(p) + int64(j)*int64(p)
			for q := range newRow {
				ob, nb := math.Float64bits(oldRow[q]), math.Float64bits(newRow[q])
				if ob != nb {
					changes = append(changes, change{base + int64(q), ob, nb})
				}
			}
		}
	}
	ob, nb := math.Float64bits(prev.ProgramTime()), math.Float64bits(cur.ProgramTime())
	if len(changes) == 0 && ob == nb {
		e.byte(deltaOpUnchanged)
		return nil
	}
	e.byte(deltaOpPresent)
	e.buf = appendBitDelta(e.buf, ob, nb)
	e.uvarint(uint64(len(changes)))
	prevFlat := int64(-1)
	for _, ch := range changes {
		e.uvarint(uint64(ch.flat - prevFlat))
		e.buf = appendBitDelta(e.buf, ch.old, ch.new)
		prevFlat = ch.flat
	}
	return nil
}

// windowVec encodes one window vector; its index chains against prevIdx.
func (e *deltaEnc) windowVec(v *temporal.WindowVector, prevIdx int) error {
	e.varint(int64(v.Index) - int64(prevIdx))
	e.uvarint(uint64(v.Events))
	var flags byte
	if v.Dominant != "" {
		flags |= deltaFlagDominant
	}
	if v.PerActivity != nil {
		flags |= deltaFlagPerActivity
	}
	if v.PerRegion != nil {
		flags |= deltaFlagPerRegion
	}
	e.byte(flags)
	if flags&deltaFlagDominant != 0 {
		if err := e.name(v.Dominant); err != nil {
			return err
		}
	}
	e.vec(v.ProcSeconds)
	for _, dim := range []map[string][]float64{v.PerActivity, v.PerRegion} {
		if dim == nil {
			continue
		}
		names := make([]string, 0, len(dim))
		for name := range dim {
			names = append(names, name)
		}
		sort.Strings(names)
		e.uvarint(uint64(len(names)))
		for _, name := range names {
			if err := e.name(name); err != nil {
				return err
			}
			e.vec(dim[name])
		}
	}
	return nil
}

// windowList encodes a count-prefixed list of window vectors whose
// indices delta-chain from 0.
func (e *deltaEnc) windowList(list []temporal.WindowVector) error {
	e.uvarint(uint64(len(list)))
	prevIdx := 0
	for i := range list {
		if err := e.windowVec(&list[i], prevIdx); err != nil {
			return err
		}
		prevIdx = list[i].Index
	}
	return nil
}

// seriesFull encodes a complete window series.
func (e *deltaEnc) seriesFull(s *temporal.Series) error {
	e.uvarint(math.Float64bits(s.Window))
	e.uvarint(uint64(s.Procs))
	e.varint(int64(s.RingStart))
	e.uvarint(math.Float64bits(s.CoarseWindow))
	if err := e.windowList(s.Windows); err != nil {
		return err
	}
	return e.windowList(s.Coarse)
}

// windowEqual reports whether two window vectors are bit-identical.
// Windows sharing their vectors are, without a float read: a collector's
// unchanged windows share their built vectors from one generation to the
// next, so only the windows its fold rebuilt are compared bit by bit.
func windowEqual(a, b *temporal.WindowVector) bool {
	if a.Index != b.Index || a.Events != b.Events || a.Dominant != b.Dominant {
		return false
	}
	if temporal.SameVectors(a, b) {
		return true
	}
	if !vecEqual(a.ProcSeconds, b.ProcSeconds) {
		return false
	}
	return dimEqual(a.PerActivity, b.PerActivity) && dimEqual(a.PerRegion, b.PerRegion)
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func dimEqual(a, b map[string][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !vecEqual(av, bv) {
			return false
		}
	}
	return true
}

// seriesDelta emits the series operation.
func (e *deltaEnc) seriesDelta(prev, cur *temporal.Series) error {
	switch {
	case cur == nil && prev == nil:
		e.byte(deltaOpUnchanged)
		return nil
	case cur == nil:
		e.byte(deltaOpCleared)
		return nil
	case prev == nil,
		math.Float64bits(prev.Window) != math.Float64bits(cur.Window),
		prev.Procs != cur.Procs:
		e.byte(deltaOpReplace)
		return e.seriesFull(cur)
	}
	// Both window lists ascend with distinct indices, so one merge walk
	// pairs each current window with its previous version and collects
	// the removed indices in order.
	var changed []temporal.WindowVector
	var removed []int
	old := prev.Windows
	for i := range cur.Windows {
		v := &cur.Windows[i]
		for len(old) > 0 && old[0].Index < v.Index {
			removed = append(removed, old[0].Index)
			old = old[1:]
		}
		if len(old) > 0 && old[0].Index == v.Index {
			if !windowEqual(&old[0], v) {
				changed = append(changed, *v)
			}
			old = old[1:]
			continue
		}
		changed = append(changed, *v)
	}
	for i := range old {
		removed = append(removed, old[i].Index)
	}
	coarseChanged := math.Float64bits(prev.CoarseWindow) != math.Float64bits(cur.CoarseWindow) ||
		len(prev.Coarse) != len(cur.Coarse)
	if !coarseChanged {
		for i := range cur.Coarse {
			if !windowEqual(&prev.Coarse[i], &cur.Coarse[i]) {
				coarseChanged = true
				break
			}
		}
	}
	if len(changed) == 0 && len(removed) == 0 && !coarseChanged && prev.RingStart == cur.RingStart {
		e.byte(deltaOpUnchanged)
		return nil
	}
	e.byte(deltaOpPresent)
	e.varint(int64(cur.RingStart) - int64(prev.RingStart))
	if coarseChanged {
		e.byte(1)
		e.uvarint(math.Float64bits(cur.CoarseWindow))
		if err := e.windowList(cur.Coarse); err != nil {
			return err
		}
	} else {
		e.byte(0)
	}
	e.uvarint(uint64(len(removed)))
	prevIdx := 0
	for _, idx := range removed {
		e.varint(int64(idx - prevIdx))
		prevIdx = idx
	}
	return e.windowList(changed)
}
