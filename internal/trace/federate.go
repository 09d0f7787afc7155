package trace

import (
	"errors"
	"fmt"
)

// JobCube is one job's contribution to a federated whole-cluster cube: a
// measurement cube together with the label that namespaces it.
type JobCube struct {
	// Label namespaces the job's code regions as "label/region", keeping
	// same-named regions of distinct jobs distinguishable in the merged
	// cube. An empty label leaves region names as they are, so regions
	// shared by several jobs merge cell-wise (their processor sets stay
	// disjoint through rank offsetting either way).
	Label string
	// Cube is the job's measurement cube.
	Cube *Cube
}

// qualified returns the namespaced name of one of the job's regions.
func (j JobCube) qualified(region string) string {
	if j.Label == "" {
		return region
	}
	return j.Label + "/" + region
}

// Federate merges the cubes of several concurrently running jobs into one
// cube that treats the whole cluster as a single program, the way the
// paper treats its P=16 run:
//
//   - Processors are offset, not added: job k's processor p becomes
//     federated processor sum(procs of jobs < k) + p, so distinct jobs'
//     ranks never collide.
//   - Regions are the union of the jobs' (label-namespaced) region names
//     and activities the union of the activity names, both in first
//     appearance order across jobs; cells a job never visited stay zero
//     on that job's processors.
//   - The program time is the maximum of the job program times — the
//     jobs run side by side, so the cluster-wide wall clock is the
//     longest job timeline, exactly as Log.Aggregate takes the span of a
//     merged event log.
func Federate(jobs []JobCube) (*Cube, error) {
	if len(jobs) == 0 {
		return nil, errors.New("trace: no cubes to federate")
	}
	var regions, activities []string
	rIdx := make(map[string]int)
	aIdx := make(map[string]int)
	procs := 0
	for k, job := range jobs {
		if job.Cube == nil {
			return nil, fmt.Errorf("trace: federated job %d (%q) has a nil cube", k, job.Label)
		}
		for _, r := range job.Cube.regions {
			name := job.qualified(r)
			if _, ok := rIdx[name]; !ok {
				rIdx[name] = len(regions)
				regions = append(regions, name)
			}
		}
		for _, a := range job.Cube.activities {
			if _, ok := aIdx[a]; !ok {
				aIdx[a] = len(activities)
				activities = append(activities, a)
			}
		}
		procs += job.Cube.procs
	}
	out, err := NewCube(regions, activities, procs)
	if err != nil {
		return nil, err
	}
	offset := 0
	programTime := 0.0
	for _, job := range jobs {
		c := job.Cube
		for i, r := range c.regions {
			fi := rIdx[job.qualified(r)]
			for j, a := range c.activities {
				fj := aIdx[a]
				for p, t := range c.times[i][j] {
					out.times[fi][fj][offset+p] += t
				}
			}
		}
		if t := c.ProgramTime(); t > programTime {
			programTime = t
		}
		offset += c.procs
	}
	out.invalidate() // times were written directly, not through Set/Add
	// Same convention as Log.Aggregate: record the wall clock only when
	// it exceeds the instrumented total (ProgramTime falls back to the
	// instrumented total otherwise). The longest job timeline is never
	// shorter than the federated instrumented total, which is the
	// procs-weighted mean of the per-job instrumented totals.
	if programTime > out.RegionsTotal() {
		if err := out.SetProgramTime(programTime); err != nil {
			return nil, err
		}
	}
	return out, nil
}
