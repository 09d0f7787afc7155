// Package testbed implements a tracefile repository in the spirit of the
// Tracefile Testbed (Ferschweiler, Harrah, Keon, Calzarossa, Tessera,
// Pancake, ICPP 2002 — reference [3] of the paper): a catalog of
// performance traces with searchable metadata, so that analyses can be
// run over "measurements collected on different parallel systems for a
// large variety of scientific programs" (the paper's future-work plan).
//
// A repository is a directory holding an index.json plus one cube file
// (a LIFP document, see tracefmt.ReadCube) per entry. Add computes
// derived metadata — dimensions, program time, and the maximum scaled
// region index SID_C — so entries can be retrieved by imbalance level as
// well as by system, program or tag.
package testbed

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"loadimb/internal/core"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// Repository errors.
var (
	// ErrNotFound is returned when an entry does not exist.
	ErrNotFound = errors.New("testbed: entry not found")
	// ErrExists is returned when adding an entry whose name is taken.
	ErrExists = errors.New("testbed: entry already exists")
	// ErrBadName is returned for unusable entry names.
	ErrBadName = errors.New("testbed: bad entry name")
)

// indexFile is the repository's catalog file name.
const indexFile = "index.json"

// Meta is the user-supplied description of a trace.
type Meta struct {
	// System names the machine the trace was collected on.
	System string `json:"system"`
	// Program names the traced application.
	Program string `json:"program"`
	// Description is free text.
	Description string `json:"description,omitempty"`
	// Tags are free-form labels for retrieval.
	Tags []string `json:"tags,omitempty"`
}

// Entry is one cataloged trace: the user metadata plus derived fields
// computed when the trace was added.
type Entry struct {
	// Name is the unique entry name (also the cube file's base name).
	Name string `json:"name"`
	// Meta is the user-supplied description.
	Meta Meta `json:"meta"`
	// Procs, Regions, Activities are the cube dimensions.
	Procs      int `json:"procs"`
	Regions    int `json:"regions"`
	Activities int `json:"activities"`
	// ProgramTime is the trace's wall clock time T.
	ProgramTime float64 `json:"program_time"`
	// MaxSID is the largest scaled region index SID_C of the trace: its
	// headline imbalance level.
	MaxSID float64 `json:"max_sid"`
}

// Repository is an open tracefile catalog.
type Repository struct {
	dir     string
	entries map[string]Entry
}

// Open opens (or initializes) a repository in dir, creating the directory
// if needed.
func Open(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Repository{dir: dir, entries: make(map[string]Entry)}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	var list []Entry
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("testbed: corrupt index: %w", err)
	}
	for _, e := range list {
		r.entries[e.Name] = e
	}
	return r, nil
}

// Dir returns the repository directory.
func (r *Repository) Dir() string { return r.dir }

// Len returns the number of cataloged entries.
func (r *Repository) Len() int { return len(r.entries) }

func (r *Repository) save() error {
	list := r.list()
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, indexFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(r.dir, indexFile))
}

func (r *Repository) list() []Entry {
	list := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		list = append(list, e)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].Name < list[b].Name })
	return list
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

func (r *Repository) cubePath(name string) string {
	return filepath.Join(r.dir, name+".lifp")
}

// Add catalogs a cube under the given name, computing the derived
// metadata, writing the cube file and updating the index atomically (the
// index is rewritten via a temp file; a failed Add leaves no index entry).
func (r *Repository) Add(name string, meta Meta, cube *trace.Cube) (Entry, error) {
	if err := validName(name); err != nil {
		return Entry{}, err
	}
	if _, ok := r.entries[name]; ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if cube == nil {
		return Entry{}, errors.New("testbed: nil cube")
	}
	regs, err := core.CodeRegionView(cube, core.Options{})
	if err != nil {
		return Entry{}, err
	}
	maxSID := 0.0
	for _, s := range regs {
		if s.Defined && s.SID > maxSID {
			maxSID = s.SID
		}
	}
	entry := Entry{
		Name:        name,
		Meta:        meta,
		Procs:       cube.NumProcs(),
		Regions:     cube.NumRegions(),
		Activities:  cube.NumActivities(),
		ProgramTime: cube.ProgramTime(),
		MaxSID:      maxSID,
	}
	if err := tracefmt.SaveCube(r.cubePath(name), cube); err != nil {
		return Entry{}, err
	}
	r.entries[name] = entry
	if err := r.save(); err != nil {
		delete(r.entries, name)
		return Entry{}, err
	}
	return entry, nil
}

// Get retrieves an entry and loads its cube.
func (r *Repository) Get(name string) (Entry, *trace.Cube, error) {
	e, ok := r.entries[name]
	if !ok {
		return Entry{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	cube, err := tracefmt.OpenCube(r.cubePath(name))
	if err != nil {
		return Entry{}, nil, err
	}
	return e, cube, nil
}

// Remove deletes an entry and its cube file.
func (r *Repository) Remove(name string) error {
	if _, ok := r.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	if err := r.save(); err != nil {
		return err
	}
	if err := os.Remove(r.cubePath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// List returns all entries, sorted by name.
func (r *Repository) List() []Entry { return r.list() }

// Filter selects entries in a Query. Zero-valued fields do not constrain.
type Filter struct {
	// System and Program match exactly when nonempty.
	System, Program string
	// Tag must appear among the entry's tags when nonempty.
	Tag string
	// MinProcs / MaxProcs bound the processor count (0 = unbounded).
	MinProcs, MaxProcs int
	// MinSID retrieves traces at least this imbalanced (by MaxSID).
	MinSID float64
}

// Match reports whether the entry satisfies the filter.
func (f Filter) Match(e Entry) bool {
	if f.System != "" && e.Meta.System != f.System {
		return false
	}
	if f.Program != "" && e.Meta.Program != f.Program {
		return false
	}
	if f.Tag != "" {
		found := false
		for _, t := range e.Meta.Tags {
			if t == f.Tag {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if f.MinProcs > 0 && e.Procs < f.MinProcs {
		return false
	}
	if f.MaxProcs > 0 && e.Procs > f.MaxProcs {
		return false
	}
	if e.MaxSID < f.MinSID {
		return false
	}
	return true
}

// Query returns the entries matching the filter, most imbalanced first.
func (r *Repository) Query(f Filter) []Entry {
	var out []Entry
	for _, e := range r.list() {
		if f.Match(e) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].MaxSID > out[b].MaxSID })
	return out
}
