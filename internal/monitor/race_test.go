//go:build race

package monitor

// raceEnabled reports that the race detector is compiled in. Its
// instrumentation slows code paths unevenly, so wall-clock floors skip.
const raceEnabled = true
