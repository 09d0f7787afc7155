package tracefmt

// This file defines the binary event *wire* protocol: the format producers
// (instrumented programs, possibly not written in Go) use to stream trace
// events over a socket into a live collector (internal/monitor's ingest
// listener), and the format of event files (WriteEvents). It is a
// streaming format — unlike a LIFP document, which holds a finished
// aggregation, a wire stream carries raw events in arrival order and
// never ends until the connection (or the file) does.
//
// # Stream layout
//
// A stream opens with a fixed handshake and then carries frames until the
// writer closes the connection:
//
//	handshake := "LIWP" uvarint(version)
//	stream    := handshake frame*
//
// The version is currently 1; a decoder must reject versions it does not
// speak (ErrBadVersion) so both sides fail loudly instead of trading
// garbage. All varints are the unsigned (uvarint) and zigzag-signed
// (varint) encodings of encoding/binary.
//
// # Frames
//
// Each frame is length-prefixed so a decoder can bound its reads and a
// relay can skip frames without parsing them:
//
//	frame := uvarint(len(body)) body          // 1 <= len <= MaxWireFrame
//	body  := frameType(1 byte) payload
//
// The only frame type is FrameEvents (0x01): a batch of events.
//
//	payload := uvarint(count) event*          // 1 <= count <= MaxWireBatch
//
// The encoder splits a batch across several frames when its payload
// would exceed MaxWireFrame (possible only for batches dense with newly
// interned near-maximum-length names); splitting is invisible to the
// decoder because intern tables and deltas are stream state, not frame
// state.
//
//	event   := varint(rank - prevRank)
//	           stringRef(region)
//	           stringRef(activity)
//	           varint(bits(start) - bits(prevStart))   // signed delta of the
//	           varint(bits(end)   - bits(start))       // IEEE-754 bit patterns
//
// # Timestamps
//
// Timestamps are float64 virtual seconds. Sending raw floats would cost 8
// bytes each; sending decimal deltas would lose bits. The wire instead
// delta-encodes the *IEEE-754 bit patterns* (interpreted as int64,
// Gorilla-style): consecutive timestamps of a monotone stream share sign,
// exponent and high mantissa bits, so the signed bit-pattern delta is
// small and varints compress it to 1-4 bytes — while the round trip stays
// exact to the last bit, which the equivalence guarantee (a wire-fed
// collector folds bit-identically to an in-process one) depends on.
// prevStart is the previous event's start in the same stream (an implicit
// 0.0 before the first event); each event's end is encoded relative to
// its own start, i.e. as a compressed duration.
//
// # String interning
//
// Region and activity names repeat constantly, so each stream direction
// maintains two append-only name tables (regions, activities) shared by
// all frames of the connection. A stringRef is codec.go's name reference:
// a name is transmitted once and referenced by index (1 byte for the
// first 127 names) afterwards. Both tables are bounded as codec.go
// describes, so a hostile stream cannot grow decoder state without limit;
// an encoder that would overflow a table errors out instead, which in
// practice means the producer is generating unbounded distinct names.
//
// # Rank deltas
//
// The rank is zigzag-delta encoded against the previous event's rank in
// the stream. A connection typically carries one rank (one producer
// thread), making the delta a single 0x00 byte.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"loadimb/internal/trace"
)

// Wire protocol constants.
const (
	// WireMagic opens every event wire stream.
	WireMagic = "LIWP"
	// WireVersion is the protocol version this package speaks.
	WireVersion = 1
	// FrameEvents is the frame type carrying a batch of events.
	FrameEvents = 0x01
	// MaxWireFrame bounds a frame body; larger declared lengths are
	// rejected before any allocation.
	MaxWireFrame = 1 << 22
	// MaxWireBatch bounds the event count of one frame.
	MaxWireBatch = 1 << 16
)

// WireEncoder encodes event batches as wire frames. It is not safe for
// concurrent use; a connection has one encoder. The zero cost path is the
// steady state: after names are interned, EncodeBatch performs no heap
// allocations (the frame is assembled in a reused scratch buffer).
//
// A write error leaves the stream state (intern tables, deltas)
// unsynchronized with whatever the receiver got; the error is sticky and
// the connection must be abandoned.
type WireEncoder struct {
	w          io.Writer
	started    bool
	err        error
	regions    interner
	activities interner
	prevRank   int64
	prevStart  uint64 // IEEE-754 bits of the previous event's start
	scratch    []byte // frame body assembly buffer
	hdr        []byte // frame header assembly buffer
}

// NewWireEncoder returns an encoder writing the wire protocol to w. The
// handshake is emitted in front of the first frame.
func NewWireEncoder(w io.Writer) *WireEncoder {
	return &WireEncoder{w: w}
}

// EncodeBatch writes one or more event frames carrying the batch, in
// order. An empty batch writes nothing. Events are passed through
// verbatim — validation (and malformed-event accounting) is the
// receiving collector's job, exactly as for in-process recording.
func (enc *WireEncoder) EncodeBatch(events []trace.Event) error {
	if enc.err != nil {
		return enc.err
	}
	if len(events) == 0 {
		return nil
	}
	if !enc.started {
		hs := append(enc.hdr[:0], WireMagic...)
		hs = binary.AppendUvarint(hs, WireVersion)
		if _, err := enc.w.Write(hs); err != nil {
			enc.err = err
			return err
		}
		enc.hdr = hs[:0]
		enc.started = true
	}
	for len(events) > 0 {
		n := len(events)
		if n > MaxWireBatch {
			n = MaxWireBatch
		}
		if err := enc.encodeFrame(events[:n]); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// maxEventWire is a conservative bound on one encoded event: the rank
// delta and two timestamp deltas (≤ MaxVarintLen64 each) plus two string
// refs, each at worst a freshly interned maximum-length name (marker +
// length varint + bytes).
const maxEventWire = 3*binary.MaxVarintLen64 + 2*(1+binary.MaxVarintLen64+maxNameLen)

// maxFramePayload is the event-payload budget of one frame: MaxWireFrame
// minus the frame type byte and the worst-case count varint.
const maxFramePayload = MaxWireFrame - 1 - binary.MaxVarintLen64

// encodeFrame writes the batch (already capped at MaxWireBatch events)
// as one or more frames. A frame normally carries the whole batch, but a
// batch dense with newly interned names — the only way events get big —
// is split across frames so no frame body exceeds MaxWireFrame: splitting
// is invisible to the receiver (the intern tables and deltas are stream
// state, not frame state), whereas erroring out would kill a legitimate
// stream.
func (enc *WireEncoder) encodeFrame(events []trace.Event) error {
	payload := enc.scratch[:0]
	count := uint64(0)
	for _, e := range events {
		if count > 0 && len(payload)+maxEventWire > maxFramePayload {
			if err := enc.flushFrame(payload, count); err != nil {
				enc.scratch = payload[:0]
				return err
			}
			payload = payload[:0]
			count = 0
		}
		rank := int64(e.Rank)
		payload = binary.AppendUvarint(payload, zigzag(rank-enc.prevRank))
		enc.prevRank = rank
		var err error
		if payload, err = enc.regions.appendRef(payload, e.Region); err == nil {
			payload, err = enc.activities.appendRef(payload, e.Activity)
		}
		if err != nil {
			// The frame under assembly is dropped: the frames already
			// written decode cleanly, and the stream ends here.
			enc.scratch = payload[:0]
			enc.err = err
			return err
		}
		start := math.Float64bits(e.Start)
		payload = appendBitDelta(payload, enc.prevStart, start)
		payload = appendBitDelta(payload, start, math.Float64bits(e.End))
		enc.prevStart = start
		count++
	}
	err := enc.flushFrame(payload, count)
	enc.scratch = payload[:0] // keep the grown buffer for the next frame
	return err
}

// flushFrame emits one frame carrying count events whose encoded payload
// is already assembled. The frame body is written in two parts (type +
// count, then the payload) so the count — unknown until a split point is
// reached — never forces re-copying the payload.
func (enc *WireEncoder) flushFrame(payload []byte, count uint64) error {
	if count == 0 {
		return nil
	}
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], count)
	hdr := binary.AppendUvarint(enc.hdr[:0], uint64(1+cn+len(payload)))
	hdr = append(hdr, FrameEvents)
	hdr = append(hdr, cnt[:cn]...)
	enc.hdr = hdr[:0]
	if _, err := enc.w.Write(hdr); err != nil {
		enc.err = err
		return err
	}
	if _, err := enc.w.Write(payload); err != nil {
		enc.err = err
		return err
	}
	return nil
}

// WireDecoder decodes an event wire stream. It is not safe for concurrent
// use; a connection has one decoder. Arbitrary input never panics: every
// structural violation returns an error wrapping ErrWire (or ErrBadMagic /
// ErrBadVersion for handshake failures), and decoder memory is bounded by
// the frame and table limits regardless of input.
type WireDecoder struct {
	br         *bufio.Reader
	started    bool
	version    uint64
	regions    names
	activities names
	prevRank   int64
	prevStart  uint64
	frame      []byte // reused frame body buffer
}

// NewWireDecoder returns a decoder reading the wire protocol from r.
func NewWireDecoder(r io.Reader) *WireDecoder {
	return &WireDecoder{br: bufio.NewReaderSize(r, 1<<16)}
}

// Version reports the negotiated protocol version; 0 before the handshake
// has been read.
func (d *WireDecoder) Version() uint64 { return d.version }

// DecodeBatch reads the next event frame and appends its events to dst,
// returning the extended slice. It returns io.EOF when the stream ends
// cleanly at a frame boundary (including the empty stream), and an error
// wrapping ErrWire / ErrBadMagic / ErrBadVersion on malformed input. A
// decoder that returned an error must not be used again.
func (d *WireDecoder) DecodeBatch(dst []trace.Event) ([]trace.Event, error) {
	if !d.started {
		if err := d.handshake(); err != nil {
			return dst, err
		}
		d.started = true
	}
	bodyLen, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return dst, io.EOF // clean end between frames
	}
	if err != nil {
		return dst, fmt.Errorf("%w: frame length: %v", ErrWire, err)
	}
	if bodyLen == 0 || bodyLen > MaxWireFrame {
		return dst, fmt.Errorf("%w: frame length %d", ErrWire, bodyLen)
	}
	if cap(d.frame) < int(bodyLen) {
		d.frame = make([]byte, bodyLen)
	}
	body := d.frame[:bodyLen]
	if _, err := io.ReadFull(d.br, body); err != nil {
		return dst, fmt.Errorf("%w: frame body: %v", ErrWire, err)
	}
	return d.decodeFrame(dst, body)
}

func (d *WireDecoder) handshake() error {
	magic := make([]byte, len(WireMagic))
	if _, err := io.ReadFull(d.br, magic); err != nil {
		if err == io.EOF {
			// An empty stream is a connection that opened and closed
			// without sending anything: an empty trace, not corruption.
			return io.EOF
		}
		return fmt.Errorf("%w: handshake: %v", ErrBadMagic, err)
	}
	if string(magic) != WireMagic {
		return fmt.Errorf("%w: got %q, want %q", ErrBadMagic, magic, WireMagic)
	}
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("%w: handshake version: %v", ErrWire, err)
	}
	if v != WireVersion {
		return fmt.Errorf("%w: wire version %d (decoder speaks %d)", ErrBadVersion, v, WireVersion)
	}
	d.version = v
	return nil
}

func (d *WireDecoder) decodeFrame(dst []trace.Event, body []byte) ([]trace.Event, error) {
	if body[0] != FrameEvents {
		return dst, fmt.Errorf("%w: unknown frame type 0x%02x", ErrWire, body[0])
	}
	r := reader{buf: body[1:]}
	count, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if count == 0 || count > MaxWireBatch {
		return dst, fmt.Errorf("%w: event count %d", ErrWire, count)
	}
	for n := uint64(0); n < count; n++ {
		var e trace.Event
		rank, err := r.varint()
		if err != nil {
			return dst, err
		}
		d.prevRank += rank
		e.Rank = int(d.prevRank)
		if e.Region, err = r.name(&d.regions); err != nil {
			return dst, err
		}
		if e.Activity, err = r.name(&d.activities); err != nil {
			return dst, err
		}
		start, err := r.bitDelta(d.prevStart)
		if err != nil {
			return dst, err
		}
		end, err := r.bitDelta(start)
		if err != nil {
			return dst, err
		}
		d.prevStart = start
		e.Start = math.Float64frombits(start)
		e.End = math.Float64frombits(end)
		dst = append(dst, e)
	}
	if len(r.buf) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes in frame", ErrWire, len(r.buf))
	}
	return dst, nil
}
