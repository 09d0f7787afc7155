package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"loadimb/internal/temporal"
)

// timelinePieces keeps /timeline.json's encoding per window summary: each
// summary's indented JSON, kept while the summary is unchanged, so a new
// generation encodes only the summaries that changed and assembles the
// body around the kept bytes. The kept pieces are slices of the last body
// it wrote, so they cost no memory of their own, and it holds the
// summaries of that body, so it is bounded by the retained windows. Its
// caller serializes it (docCache's lock) and never writes to a body it
// returned.
type timelinePieces struct {
	ring, coarse pieceList
}

// pieceList is one summary list's encodings: enc[i] encodes stats[i].
type pieceList struct {
	stats []temporal.WindowStat
	enc   [][]byte
}

// Window summaries sit two levels deep in the document (an object in an
// array in the top-level object), which sets their indentation.
const (
	pieceIndent = "    "
	fieldIndent = "  "
)

// encode writes p to buf exactly as encodeJSON would: the same bytes, or
// none and encodeJSON's failure when a value cannot be encoded. buf must
// be empty.
func (c *timelinePieces) encode(buf *bytes.Buffer, p *timelinePayload) error {
	window, err := json.Marshal(p.Window)
	var coarseWindow []byte
	if err == nil && p.CoarseWindow != 0 {
		coarseWindow, err = json.Marshal(p.CoarseWindow)
	}
	var ring, coarse [][]byte
	if err == nil {
		ring, err = c.ring.pieces(p.Windows)
	}
	if err == nil {
		coarse, err = c.coarse.pieces(p.Coarse)
	}
	if err != nil {
		return err
	}
	buf.Grow(256 + size(ring) + size(coarse))
	buf.WriteString("{\n" + fieldIndent + `"window": `)
	buf.Write(window)
	buf.WriteString(",\n" + fieldIndent + `"windows": `)
	ringAt := writeList(buf, p.Windows, ring)
	if coarseWindow != nil {
		buf.WriteString(",\n" + fieldIndent + `"coarse_window": `)
		buf.Write(coarseWindow)
	}
	if p.RingStart != 0 {
		buf.WriteString(",\n" + fieldIndent + `"ring_start": ` + strconv.Itoa(p.RingStart))
	}
	var coarseAt []int
	if len(p.Coarse) > 0 {
		buf.WriteString(",\n" + fieldIndent + `"coarse": `)
		coarseAt = writeList(buf, p.Coarse, coarse)
	}
	buf.WriteString("\n}\n")
	body := buf.Bytes()
	c.ring.keep(p.Windows, ring, ringAt, body)
	c.coarse.keep(p.Coarse, coarse, coarseAt, body)
	return nil
}

// pieces returns the encoding of each of stats, reusing the kept encoding
// of every summary equal to one the list holds. Both lists ascend by
// window index, so one cursor finds each window's previous summary.
func (l *pieceList) pieces(stats []temporal.WindowStat) ([][]byte, error) {
	enc := make([][]byte, len(stats))
	j := 0
	for i := range stats {
		ws := &stats[i]
		for j < len(l.stats) && l.stats[j].Index < ws.Index {
			j++
		}
		if j < len(l.stats) && sameStat(&l.stats[j], ws) {
			enc[i] = l.enc[j]
			continue
		}
		b, err := json.MarshalIndent(ws, pieceIndent, fieldIndent)
		if err != nil {
			return nil, err
		}
		enc[i] = b
	}
	return enc, nil
}

// keep makes the list hold stats, whose pieces enc were written into body
// at the offsets at.
func (l *pieceList) keep(stats []temporal.WindowStat, enc [][]byte, at []int, body []byte) {
	for i, off := range at {
		enc[i] = body[off : off+len(enc[i]) : off+len(enc[i])]
	}
	l.stats, l.enc = stats, enc
}

// writeList writes a summary list as a field value of the document — null
// for a nil list, [] for an empty one — from its pieces, and returns the
// offset in buf of each piece.
func writeList(buf *bytes.Buffer, stats []temporal.WindowStat, pieces [][]byte) []int {
	switch {
	case stats == nil:
		buf.WriteString("null")
		return nil
	case len(stats) == 0:
		buf.WriteString("[]")
		return nil
	}
	at := make([]int, len(pieces))
	buf.WriteString("[\n" + pieceIndent)
	for i, b := range pieces {
		if i > 0 {
			buf.WriteString(",\n" + pieceIndent)
		}
		at[i] = buf.Len()
		buf.Write(b)
	}
	buf.WriteString("\n" + fieldIndent + "]")
	return at
}

// size is the total length of the pieces with their separators.
func size(pieces [][]byte) int {
	n := 0
	for _, b := range pieces {
		n += len(b) + len(",\n"+pieceIndent)
	}
	return n
}

// sameStat reports whether two window summaries encode alike: every field
// equal, floats bit for bit.
func sameStat(a, b *temporal.WindowStat) bool {
	return a.Index == b.Index && a.Events == b.Events && a.Dominant == b.Dominant &&
		sameBits(a.Start, b.Start) && sameBits(a.End, b.End) &&
		sameBits(a.Busy, b.Busy) && sameBits(a.Gini, b.Gini) &&
		(a.ID == nil) == (b.ID == nil) && (a.ID == nil || sameBits(*a.ID, *b.ID))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
