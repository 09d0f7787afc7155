package trace

import (
	"fmt"
	"math"
)

// An Event is one timed interval recorded during execution: processor Rank
// spent [Start, End) seconds of virtual time in the given activity of the
// given code region. Events are what instrumented runs (internal/mpi)
// produce; Aggregate folds them into a Cube for analysis.
type Event struct {
	Rank     int
	Region   string
	Activity string
	Start    float64
	End      float64
}

// Duration returns the length of the event interval.
func (e Event) Duration() float64 { return e.End - e.Start }

// Validate checks that the event is well formed.
func (e Event) Validate() error {
	if e.Rank < 0 {
		return fmt.Errorf("trace: event rank %d negative", e.Rank)
	}
	if e.Region == "" {
		return fmt.Errorf("trace: event with empty region")
	}
	if e.Activity == "" {
		return fmt.Errorf("trace: event with empty activity")
	}
	if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || math.IsNaN(e.End) || math.IsInf(e.End, 0) {
		return fmt.Errorf("trace: event times [%g, %g) not finite", e.Start, e.End)
	}
	if e.End < e.Start {
		return fmt.Errorf("trace: event ends at %g before start %g", e.End, e.Start)
	}
	return nil
}

// Log is an append-only collection of events from one program run.
type Log struct {
	events []Event
}

// NewLog returns an empty log with room for n events, for producers that
// know their event count before they append.
func NewLog(n int) *Log { return &Log{events: make([]Event, 0, n)} }

// Append adds an event after validating it.
func (l *Log) Append(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	l.events = append(l.events, e)
	return nil
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Events returns a copy of the recorded events. External callers get a
// slice they may mutate freely; hot internal consumers that only read
// should use Each or EventsInto instead, which skip the per-call copy.
func (l *Log) Events() []Event { return append([]Event(nil), l.events...) }

// Each calls fn for every recorded event in log order without copying
// the backing slice. fn must not append to the log.
func (l *Log) Each(fn func(Event)) {
	for _, e := range l.events {
		fn(e)
	}
}

// EventsInto appends the recorded events to dst and returns the result,
// reusing dst's capacity. Callers that repeatedly materialize the events
// (renderers, repeated folds) amortize one buffer instead of paying a
// fresh copy per Events call.
func (l *Log) EventsInto(dst []Event) []Event {
	return append(dst, l.events...)
}

// Ranks returns the number of distinct ranks that appear in the log,
// computed as 1 + the maximum rank (ranks are assumed dense from zero).
func (l *Log) Ranks() int {
	maxRank := -1
	for _, e := range l.events {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	return maxRank + 1
}

// Span returns the virtual-time extent of the log: the maximum End over
// all events (0 for an empty log). This approximates the program wall
// clock time of a run that starts at virtual time zero.
func (l *Log) Span() float64 {
	span := 0.0
	for _, e := range l.events {
		if e.End > span {
			span = e.End
		}
	}
	return span
}

// Aggregate folds the log into a Cube. Region and activity dimensions are
// the union of names appearing in the log, in order of first appearance
// unless explicit orders are supplied (names listed there come first, in
// the given order; unknown listed names are ignored if unused... they are
// kept so table layouts stay stable even when an activity never occurs).
// The cube's program time is set to the log's span.
func (l *Log) Aggregate(regionOrder, activityOrder []string) (*Cube, error) {
	return l.AggregateProcs(regionOrder, activityOrder, 0)
}

// AggregateProcs is Aggregate with an explicit minimum processor count:
// the cube gets max(procs, Ranks()) processors, so a slice of a larger
// run (a temporal phase, say) keeps the full rank space and processors
// idle for the whole slice count as zeros — an idle processor is the
// imbalance, not missing data. procs 0 behaves exactly like Aggregate.
func (l *Log) AggregateProcs(regionOrder, activityOrder []string, procs int) (*Cube, error) {
	if len(l.events) == 0 {
		return nil, fmt.Errorf("trace: cannot aggregate empty log")
	}
	if r := l.Ranks(); r > procs {
		procs = r
	}
	// Each event's names are resolved once, while the dimensions are
	// collected; at keeps the indices for the add loop.
	var regions, activities Names
	for _, n := range regionOrder {
		regions.Index(n)
	}
	for _, n := range activityOrder {
		activities.Index(n)
	}
	at := make([][2]int, len(l.events))
	for k, e := range l.events {
		at[k][0], _ = regions.Index(e.Region)
		at[k][1], _ = activities.Index(e.Activity)
	}
	cube, err := NewCube(regions.List(), activities.List(), procs)
	if err != nil {
		return nil, err
	}
	for k, e := range l.events {
		if err := cube.Add(at[k][0], at[k][1], e.Rank, e.Duration()); err != nil {
			return nil, err
		}
	}
	// Program time is the longest rank timeline: ranks run concurrently,
	// so the program's wall clock is the maximum event end time.
	if span := l.Span(); span > cube.RegionsTotal() {
		if err := cube.SetProgramTime(span); err != nil {
			return nil, err
		}
	}
	return cube, nil
}

// Durations returns the durations of every event of the given activity,
// across all ranks and regions, in log order. Workload characterization
// (internal/fit) consumes these to model the activity's burst lengths.
func (l *Log) Durations(activity string) []float64 {
	var out []float64
	for _, e := range l.events {
		if e.Activity == activity {
			out = append(out, e.Duration())
		}
	}
	return out
}

// RegionDurations returns the durations of the events of one activity
// within one region.
func (l *Log) RegionDurations(region, activity string) []float64 {
	var out []float64
	for _, e := range l.events {
		if e.Region == region && e.Activity == activity {
			out = append(out, e.Duration())
		}
	}
	return out
}

// Window returns a new log containing the portions of events overlapping
// [from, to): events are clipped to the window. Per-phase analysis slices
// a run's log into iteration windows and aggregates each into its own
// cube.
func (l *Log) Window(from, to float64) (*Log, error) {
	if to <= from {
		return nil, fmt.Errorf("trace: window [%g, %g) is empty", from, to)
	}
	var out Log
	for _, e := range l.events {
		if e.End <= from || e.Start >= to {
			continue
		}
		clipped := e
		if clipped.Start < from {
			clipped.Start = from
		}
		if clipped.End > to {
			clipped.End = to
		}
		if err := out.Append(clipped); err != nil {
			return nil, err
		}
	}
	return &out, nil
}
