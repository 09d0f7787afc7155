package tracefmt

import (
	"fmt"
	"os"
	"strings"

	"loadimb/internal/trace"
)

// OpenCube reads a cube from the named file, selecting the format by
// extension: ".json" is the JSON format, ".csv" the CSV interchange
// format, anything else a cube file (a LIFP document, see ReadCube).
func OpenCube(path string) (*trace.Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cube *trace.Cube
	switch {
	case strings.HasSuffix(path, ".json"):
		cube, err = ReadCubeJSON(f)
	case strings.HasSuffix(path, ".csv"):
		cube, err = ReadCubeCSV(f)
	default:
		cube, err = ReadCube(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cube, nil
}

// SaveCube writes a cube to the named file, selecting the format by
// extension like OpenCube. The file is created or truncated.
func SaveCube(path string, cube *trace.Cube) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch {
	case strings.HasSuffix(path, ".json"):
		werr = WriteCubeJSON(f, cube)
	case strings.HasSuffix(path, ".csv"):
		werr = WriteCubeCSV(f, cube)
	default:
		werr = WriteCube(f, cube)
	}
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return nil
}

// OpenEvents reads an event file (a LIWP stream) from the named file.
func OpenEvents(path string) (*trace.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, nil
}

// SaveEvents writes the log to the named file as an event file (a LIWP
// stream).
func SaveEvents(path string, log *trace.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteEvents(f, log)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return nil
}
