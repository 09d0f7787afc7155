//go:build !race

package loadimb_test

const raceEnabled = false
