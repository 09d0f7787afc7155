// Package tracefmt defines the formats measurement cubes and event traces
// travel in, on disk and over the network: LIWP, an event stream
// (wire.go), and LIFP, a snapshot document holding a cube and an optional
// window series (delta.go), both written on the primitives of codec.go.
// A cube file is a LIFP full document and an event file a LIWP stream.
// A JSON cube format (the /cube.json document) and CSV (csv.go) remain
// for interoperability. The binary and JSON forms round-trip losslessly.
package tracefmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"loadimb/internal/trace"
)

// Codec sizes and bounds.
const (
	// maxNameLen bounds string fields against corrupt or hostile input.
	maxNameLen = 4096
	// maxDim bounds the processor count of a decoded window series.
	maxDim = 1 << 20
	// eventChunk is the event count WriteEvents gathers into one batch.
	eventChunk = 4096
)

// Format errors.
var (
	// ErrBadMagic is returned when the input does not start with the
	// format's magic bytes.
	ErrBadMagic = errors.New("tracefmt: bad magic")
	// ErrBadVersion is returned for unsupported format versions.
	ErrBadVersion = errors.New("tracefmt: unsupported format version")
	// ErrCorrupt is returned for structurally invalid input. Every error
	// the file readers return for malformed input wraps it.
	ErrCorrupt = errors.New("tracefmt: corrupt input")
)

// WriteCube encodes the cube as a cube file: a LIFP full document with
// zero boot and generation and no window series.
func WriteCube(w io.Writer, cube *trace.Cube) error {
	if cube == nil {
		return errors.New("tracefmt: nil cube")
	}
	doc, err := EncodeSnapshotFull(&DeltaState{Cube: cube})
	if err != nil {
		return err
	}
	_, err = w.Write(doc)
	return err
}

// ReadCube decodes a cube file: any LIFP full document that carries a
// cube, such as a full /delta response body. A document without a cube
// and a delta document are errors. Every error for malformed input wraps
// ErrCorrupt beside the decoder's finer ErrWire, ErrBadMagic,
// ErrBadVersion or ErrDeltaBase.
func ReadCube(r io.Reader) (*trace.Cube, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	state, err := DecodeSnapshot(data, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if state.Cube == nil {
		return nil, fmt.Errorf("%w: document carries no cube", ErrCorrupt)
	}
	return state.Cube, nil
}

// jsonCube is the JSON wire representation of a cube.
type jsonCube struct {
	Regions     []string      `json:"regions"`
	Activities  []string      `json:"activities"`
	Procs       int           `json:"procs"`
	ProgramTime float64       `json:"program_time"`
	Times       [][][]float64 `json:"times"` // [region][activity][proc]
}

// WriteCubeJSON encodes the cube as indented JSON.
func WriteCubeJSON(w io.Writer, cube *trace.Cube) error {
	if cube == nil {
		return errors.New("tracefmt: nil cube")
	}
	jc := jsonCube{
		Regions:     cube.Regions(),
		Activities:  cube.Activities(),
		Procs:       cube.NumProcs(),
		ProgramTime: cube.ProgramTime(),
	}
	jc.Times = make([][][]float64, cube.NumRegions())
	for i := range jc.Times {
		jc.Times[i] = make([][]float64, cube.NumActivities())
		for j := range jc.Times[i] {
			ts, err := cube.ProcTimes(i, j)
			if err != nil {
				return err
			}
			jc.Times[i][j] = ts
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jc)
}

// ReadCubeJSON decodes a JSON cube.
func ReadCubeJSON(r io.Reader) (*trace.Cube, error) {
	var jc jsonCube
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	cube, err := trace.NewCube(jc.Regions, jc.Activities, jc.Procs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(jc.Times) != len(jc.Regions) {
		return nil, fmt.Errorf("%w: %d time rows for %d regions", ErrCorrupt, len(jc.Times), len(jc.Regions))
	}
	for i := range jc.Times {
		if len(jc.Times[i]) != len(jc.Activities) {
			return nil, fmt.Errorf("%w: region %d has %d activity rows", ErrCorrupt, i, len(jc.Times[i]))
		}
		for j := range jc.Times[i] {
			if len(jc.Times[i][j]) != jc.Procs {
				return nil, fmt.Errorf("%w: cell (%d,%d) has %d times", ErrCorrupt, i, j, len(jc.Times[i][j]))
			}
			for p, t := range jc.Times[i][j] {
				if err := cube.Set(i, j, p, t); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
			}
		}
	}
	if jc.ProgramTime > cube.RegionsTotal() {
		if err := cube.SetProgramTime(jc.ProgramTime); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return cube, nil
}

// WriteEvents encodes an event log as an event file: the LIWP stream a
// producer sends a live collector, so the file replays into an ingest
// listener unmodified.
func WriteEvents(w io.Writer, log *trace.Log) error {
	if log == nil {
		return errors.New("tracefmt: nil log")
	}
	bw := bufio.NewWriter(w)
	enc := NewWireEncoder(bw)
	chunk := make([]trace.Event, 0, min(eventChunk, log.Len()))
	var err error
	log.Each(func(e trace.Event) {
		if err != nil {
			return
		}
		chunk = append(chunk, e)
		if len(chunk) == eventChunk {
			err = enc.EncodeBatch(chunk)
			chunk = chunk[:0]
		}
	})
	if err == nil {
		err = enc.EncodeBatch(chunk)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEvents decodes an event file (a LIWP stream) into a log; every
// event passes Log.Append's validation. Empty input is an empty log.
// Every error for malformed input wraps ErrCorrupt beside the decoder's
// finer ErrWire, ErrBadMagic or ErrBadVersion.
func ReadEvents(r io.Reader) (*trace.Log, error) {
	var log trace.Log
	dec := NewWireDecoder(r)
	var batch []trace.Event
	for {
		var err error
		batch, err = dec.DecodeBatch(batch[:0])
		if err == io.EOF {
			return &log, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		for _, e := range batch {
			if err := log.Append(e); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
		}
	}
}
