// Package tracefmt defines the on-disk formats for measurement cubes and
// event traces: a compact versioned binary format (magic "LIMB") and a JSON
// format for interoperability. Both round-trip losslessly through the
// in-memory types of internal/trace. It also defines the two network
// protocols, the LIWP event stream (wire.go) and the LIFP snapshot
// documents (delta.go), both written on the primitives of codec.go.
package tracefmt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"loadimb/internal/trace"
)

// Binary format constants.
const (
	// Magic identifies a binary cube file.
	Magic = "LIMB"
	// Version is the current binary format version.
	Version = 1
	// maxNameLen bounds string fields against corrupt or hostile input.
	maxNameLen = 4096
	// maxDim bounds the cube dimensions when decoding.
	maxDim = 1 << 20
)

// Format errors.
var (
	// ErrBadMagic is returned when the input does not start with Magic.
	ErrBadMagic = errors.New("tracefmt: bad magic (not a LIMB file)")
	// ErrBadVersion is returned for unsupported format versions.
	ErrBadVersion = errors.New("tracefmt: unsupported format version")
	// ErrCorrupt is returned for structurally invalid input.
	ErrCorrupt = errors.New("tracefmt: corrupt input")
)

// byteOrder is the file byte order.
var byteOrder = binary.LittleEndian

// WriteCube encodes the cube in the binary format:
//
//	magic[4] version[u32] N[u32] K[u32] P[u32]
//	programTime[f64]
//	N regions names, K activity names (u32 length + UTF-8 bytes)
//	N*K*P f64 times, region-major then activity then processor
func WriteCube(w io.Writer, cube *trace.Cube) error {
	if cube == nil {
		return errors.New("tracefmt: nil cube")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	n, k, p := cube.NumRegions(), cube.NumActivities(), cube.NumProcs()
	for _, v := range []uint32{Version, uint32(n), uint32(k), uint32(p)} {
		if err := binary.Write(bw, byteOrder, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, byteOrder, cube.ProgramTime()); err != nil {
		return err
	}
	for _, name := range cube.Regions() {
		if err := writeString(bw, name); err != nil {
			return err
		}
	}
	for _, name := range cube.Activities() {
		if err := writeString(bw, name); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			for q := 0; q < p; q++ {
				t, err := cube.At(i, j, q)
				if err != nil {
					return err
				}
				if err := binary.Write(bw, byteOrder, t); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadCube decodes a binary cube.
func ReadCube(r io.Reader) (*trace.Cube, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic) != Magic {
		return nil, ErrBadMagic
	}
	var version, n, k, p uint32
	for _, dst := range []*uint32{&version, &n, &k, &p} {
		if err := binary.Read(br, byteOrder, dst); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
		}
	}
	if version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if n == 0 || k == 0 || p == 0 || n > maxDim || k > maxDim || p > maxDim {
		return nil, fmt.Errorf("%w: dimensions %d x %d x %d", ErrCorrupt, n, k, p)
	}
	var programTime float64
	if err := binary.Read(br, byteOrder, &programTime); err != nil {
		return nil, fmt.Errorf("%w: program time: %v", ErrCorrupt, err)
	}
	if math.IsNaN(programTime) || math.IsInf(programTime, 0) || programTime < 0 {
		return nil, fmt.Errorf("%w: program time %g", ErrCorrupt, programTime)
	}
	regions := make([]string, n)
	for i := range regions {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		regions[i] = s
	}
	activities := make([]string, k)
	for j := range activities {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		activities[j] = s
	}
	cube, err := trace.NewCube(regions, activities, int(p))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i := 0; i < int(n); i++ {
		for j := 0; j < int(k); j++ {
			for q := 0; q < int(p); q++ {
				var t float64
				if err := binary.Read(br, byteOrder, &t); err != nil {
					return nil, fmt.Errorf("%w: times: %v", ErrCorrupt, err)
				}
				if math.IsNaN(t) || math.IsInf(t, 0) {
					return nil, fmt.Errorf("%w: time %g at (%d,%d,%d)", ErrCorrupt, t, i, j, q)
				}
				if err := cube.Set(i, j, q, t); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
			}
		}
	}
	// Restore the explicit program time only when it exceeds the derived
	// total (SetProgramTime would reject smaller values caused by
	// float rounding of an implicit total).
	if programTime > cube.RegionsTotal() {
		if err := cube.SetProgramTime(programTime); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return cube, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxNameLen {
		return fmt.Errorf("tracefmt: name longer than %d bytes", maxNameLen)
	}
	if err := binary.Write(w, byteOrder, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, byteOrder, &n); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrCorrupt, err)
	}
	if n > maxNameLen {
		return "", fmt.Errorf("%w: string length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrCorrupt, err)
	}
	return string(buf), nil
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

// jsonEvent is the JSON wire representation of one trace event.
type jsonEvent struct {
	Rank     int     `json:"rank"`
	Region   string  `json:"region"`
	Activity string  `json:"activity"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// WriteEvents encodes an event log as JSON Lines (one event per line), the
// streaming-friendly format tools exchange.
func WriteEvents(w io.Writer, log *trace.Log) error {
	if log == nil {
		return errors.New("tracefmt: nil log")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	log.Each(func(e trace.Event) {
		if encErr != nil {
			return
		}
		je := jsonEvent{Rank: e.Rank, Region: e.Region, Activity: e.Activity, Start: e.Start, End: e.End}
		encErr = enc.Encode(je)
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

// ReadEvents decodes a JSON Lines event log.
func ReadEvents(r io.Reader) (*trace.Log, error) {
	var log trace.Log
	dec := json.NewDecoder(r)
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		e := trace.Event{Rank: je.Rank, Region: je.Region, Activity: je.Activity, Start: je.Start, End: je.End}
		if err := log.Append(e); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return &log, nil
}
