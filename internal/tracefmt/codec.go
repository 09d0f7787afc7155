package tracefmt

// This file holds the primitives both binary protocols are written in:
// LIWP, the event stream (wire.go), and LIFP, the snapshot documents
// (delta.go, delta_decode.go). Each is written once here, so the two
// protocols cannot drift apart — in particular the encoder refuses
// exactly the name tables the decoder would reject.
//
//	uvarint, varint   encoding/binary's unsigned and zigzag-signed varints
//	bit delta         varint(bits(v) - bits(prev)): a float64 sent as the
//	                  signed difference of its IEEE-754 bit pattern from a
//	                  reference pattern, exact to the last bit
//	name ref          uvarint(0) uvarint(len) bytes   new: append to table
//	                | uvarint(index+1)                known: table reference
//
// A name table is bounded on both sides: names of at most maxNameLen
// bytes, at most MaxWireStrings entries, at most maxWireTableBytes name
// bytes in total.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec bounds shared by LIWP and LIFP.
const (
	// MaxWireStrings bounds the entries of one name table.
	MaxWireStrings = 1 << 16
	// maxWireTableBytes bounds the total name bytes of one table, so a
	// hostile peer cannot balloon decoder memory with maximum-length
	// names.
	maxWireTableBytes = 1 << 24
)

// ErrWire is wrapped by every LIWP and LIFP corruption error, so callers
// can distinguish malformed input from an I/O failure.
var ErrWire = errors.New("tracefmt: corrupt wire stream")

// zigzag maps a signed delta onto the unsigned varint space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendBitDelta appends the bit delta of the pattern cur against prev.
func appendBitDelta(dst []byte, prev, cur uint64) []byte {
	return binary.AppendUvarint(dst, zigzag(int64(cur)-int64(prev)))
}

// interner is the encoder side of a name table. The zero value is an
// empty table. It memoizes the last name and its reference: real streams
// repeat the same name in long runs, so the hot path is a string
// comparison (usually a pointer equality) instead of a map lookup. A zero
// lastRef marks the memo invalid — 0 is never a table reference.
type interner struct {
	refs    map[string]uint64 // name -> index+1
	bytes   int
	last    string
	lastRef uint64
}

// appendRef appends the reference for name, interning it on first use.
// A name the decoder would reject — too long, or one past the table's
// entry or byte bound — is an error wrapping ErrWire, and dst is
// returned unchanged.
func (in *interner) appendRef(dst []byte, name string) ([]byte, error) {
	if in.lastRef != 0 && name == in.last {
		return binary.AppendUvarint(dst, in.lastRef), nil
	}
	if ref, ok := in.refs[name]; ok {
		in.last, in.lastRef = name, ref
		return binary.AppendUvarint(dst, ref), nil
	}
	switch {
	case len(name) > maxNameLen:
		return dst, fmt.Errorf("%w: name %d bytes exceeds %d", ErrWire, len(name), maxNameLen)
	case len(in.refs) >= MaxWireStrings:
		return dst, fmt.Errorf("%w: string table full (%d names)", ErrWire, MaxWireStrings)
	case in.bytes+len(name) > maxWireTableBytes:
		return dst, fmt.Errorf("%w: string table byte budget exceeded", ErrWire)
	}
	if in.refs == nil {
		in.refs = make(map[string]uint64)
	}
	ref := uint64(len(in.refs)) + 1
	in.refs[name] = ref
	in.bytes += len(name)
	in.last, in.lastRef = name, ref
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...), nil
}

// names is the decoder side of a name table. The zero value is empty.
type names struct {
	list  []string
	bytes int
}

// reader decodes primitives off the front of one bounded byte slice.
// Every read is bounds-checked: arbitrary input yields an error wrapping
// ErrWire, never a panic or an allocation out of proportion to the
// input.
type reader struct {
	buf []byte
}

func (r *reader) uvarint() (uint64, error) {
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		// One byte, as most name references and rank deltas are.
		v := uint64(r.buf[0])
		r.buf = r.buf[1:]
		return v, nil
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated or overlong varint", ErrWire)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

func (r *reader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, fmt.Errorf("%w: truncated byte", ErrWire)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// count reads a count whose every element consumes at least min bytes of
// input, rejecting counts the remaining input cannot possibly satisfy —
// the proportionality bound that keeps decoder allocation tied to input
// size.
func (r *reader) count(min int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)/min) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining input", ErrWire, v)
	}
	return int(v), nil
}

// bitDelta reads a bit delta and returns the pattern it encodes against
// prev.
func (r *reader) bitDelta(prev uint64) (uint64, error) {
	d, err := r.varint()
	return uint64(int64(prev) + d), err
}

// finite reads a bit delta against *prev, advances *prev to the decoded
// pattern and returns its value, rejecting NaN and ±Inf.
func (r *reader) finite(prev *uint64) (float64, error) {
	bits, err := r.bitDelta(*prev)
	if err != nil {
		return 0, err
	}
	*prev = bits
	v := math.Float64frombits(bits)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: non-finite value", ErrWire)
	}
	return v, nil
}

// name reads one name reference against the table t, appending a newly
// introduced name within the table's bounds.
func (r *reader) name(t *names) (string, error) {
	ref, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if ref != 0 {
		if ref > uint64(len(t.list)) {
			return "", fmt.Errorf("%w: string ref %d beyond table of %d", ErrWire, ref, len(t.list))
		}
		return t.list[ref-1], nil
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	switch {
	case n > maxNameLen || n > uint64(len(r.buf)):
		return "", fmt.Errorf("%w: name length %d", ErrWire, n)
	case len(t.list) >= MaxWireStrings:
		return "", fmt.Errorf("%w: string table full", ErrWire)
	case t.bytes+int(n) > maxWireTableBytes:
		return "", fmt.Errorf("%w: string table byte budget exceeded", ErrWire)
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	t.list = append(t.list, s)
	t.bytes += int(n)
	return s, nil
}
