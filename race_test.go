//go:build race

package loadimb_test

// raceEnabled reports that the race detector is compiled in. Its
// instrumentation slows code paths unevenly, so wall-clock floors skip.
const raceEnabled = true
