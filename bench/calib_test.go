package main

import (
	"math"
	"testing"
	"time"
)

// TestSlowdownIsLocalAndAveragedOverCPUs checks that the slowdown at a
// moment follows each CPU's samples near that moment and averages the
// CPUs.
func TestSlowdownIsLocalAndAveragedOverCPUs(t *testing.T) {
	t0 := time.Now()
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * calEvery) }
	c := &calibrator{samples: make([][]calSample, 2)}
	for i := 0; i < 40; i++ {
		// CPU 0 runs at nominal speed, then at half speed; CPU 1 always at
		// half speed.
		ms0 := calNominalMs
		if i >= 20 {
			ms0 = 2 * calNominalMs
		}
		c.samples[0] = append(c.samples[0], calSample{at: at(i), ms: ms0})
		c.samples[1] = append(c.samples[1], calSample{at: at(i), ms: 2 * calNominalMs})
	}
	for _, tc := range []struct {
		at   time.Time
		want float64
	}{
		{at(5), 1.5},
		{at(35), 2},
		{t0.Add(-time.Hour), 1.5}, // before the first sample: the earliest ones
		{at(1000), 2},             // after the last: the latest ones
	} {
		if got := c.slowdown(tc.at); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("slowdown at %v = %v, want %v", tc.at.Sub(t0), got, tc.want)
		}
	}
	if got := c.calibrate(3, at(35)); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("calibrate(3) at half speed = %v, want 1.5", got)
	}
	if got := (&calibrator{}).slowdown(t0); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
}

// TestCalibratorSamplesEveryCPU starts and stops a real calibrator.
func TestCalibratorSamplesEveryCPU(t *testing.T) {
	c := startCalibrator()
	c.close()
	if len(c.samples) == 0 {
		t.Fatal("no CPUs sampled")
	}
	for cpu, s := range c.samples {
		if len(s) == 0 || !(s[0].ms > 0) {
			t.Errorf("CPU %d: samples %v", cpu, s)
		}
	}
	if ms, n := c.kernelMs(); !(ms > 0) || n < len(c.samples) {
		t.Errorf("kernelMs = %v over %d samples", ms, n)
	}
}
