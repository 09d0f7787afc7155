package main

// Host-speed calibration. On the two-vCPU reference machine each CPU runs
// a fixed piece of work in about 0.27 ms at one moment and 0.37 ms the
// next, as the machine's other tenants come and go, and the two CPUs
// switch independently of each other. Wall and CPU times therefore move
// by a third with the host alone, within a run and between runs.
//
// A calibrator measures that speed while a run goes on: a goroutine on a
// thread of its own times a fixed kernel on each CPU the process may use,
// in turn, every calEvery per CPU, by the thread's own CPU clock, so time
// spent waiting for a CPU does not count. The end-to-end time metrics are
// divided by the host's slowdown at the moment they were measured: the
// kernel's local time, averaged over the CPUs, over calNominalMs. They
// read as milliseconds on a host where the kernel takes calNominalMs, and
// a change to the program under test moves them as it moves wall time.

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calEvery is the sampling period per CPU. Sampling costs one kernel
	// run per period on each CPU, about 0.3% of it.
	calEvery = 100 * time.Millisecond
	// calNominalMs is the kernel time calibrated values are expressed
	// at: a fixed reference, between the kernel's fast and slow times on
	// the reference machine.
	calNominalMs = 0.33
	// calNearest is how many of a CPU's samples nearest in time to a
	// measurement give that CPU's local kernel time (their median): a
	// second's worth, so a brief hiccup in one sample does not count.
	calNearest = 11
	// calKernelInts is the size of the kernel's sort; half as many map
	// inserts follow.
	calKernelInts = 4096
)

// calSample is one timing of the kernel on one CPU.
type calSample struct {
	at time.Time
	ms float64
}

// calibrator samples the host's speed until close.
type calibrator struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples [][]calSample // per CPU, in time order
}

// startCalibrator starts sampling and returns once every CPU has been
// sampled once.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go c.sample(ready)
	<-ready
	return c
}

// close stops sampling and waits until the sampler has exited.
func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

func (c *calibrator) sample(ready chan struct{}) {
	defer close(c.done)
	// The thread is never unlocked, so it ends with this goroutine and
	// no other goroutine inherits its CPU pinning.
	runtime.LockOSThread()
	all, ok := affinity()
	cpus := all.cpus()
	if !ok || len(cpus) == 0 {
		cpus = []int{-1} // cannot pin: time the kernel wherever it runs
	}
	c.mu.Lock()
	c.samples = make([][]calSample, len(cpus))
	c.mu.Unlock()
	k := newKernel()
	tick := time.NewTicker(calEvery / time.Duration(len(cpus)))
	defer tick.Stop()
	for i := 0; ; i++ {
		cpu := i % len(cpus)
		if cpus[cpu] >= 0 {
			pinTo(cpus[cpu])
		}
		t := threadCPU()
		k.run()
		d := threadCPU() - t
		if cpus[cpu] >= 0 {
			setAffinity(all)
		}
		c.mu.Lock()
		c.samples[cpu] = append(c.samples[cpu], calSample{at: time.Now(), ms: ms(d)})
		c.mu.Unlock()
		if i == len(cpus)-1 {
			close(ready)
		}
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// slowdown returns the host's slowdown at t: the mean over CPUs of the
// median kernel time of the calNearest samples nearest to t, over
// calNominalMs.
func (c *calibrator) slowdown(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range c.samples {
		if len(s) == 0 {
			continue
		}
		i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
		lo := max(0, min(i-calNearest/2, len(s)-calNearest))
		hi := min(len(s), lo+calNearest)
		local := make([]float64, 0, hi-lo)
		for _, x := range s[lo:hi] {
			local = append(local, x.ms)
		}
		sum += median(local)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / calNominalMs
}

// calibrate divides d, measured starting at t, by the host's slowdown.
func (c *calibrator) calibrate(d float64, t time.Time) float64 {
	return d / c.slowdown(t)
}

// kernelMs returns the median kernel time over every sample and CPU, and
// the number of samples.
func (c *calibrator) kernelMs() (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []float64
	for _, s := range c.samples {
		for _, x := range s {
			all = append(all, x.ms)
		}
	}
	return median(all), len(all)
}

// kernel is the fixed work the calibrator times: a sort and map inserts,
// on state allocated once, so it allocates nothing.
type kernel struct {
	data, buf []int
	m         map[int]int
}

func newKernel() *kernel {
	k := &kernel{data: make([]int, calKernelInts), buf: make([]int, calKernelInts), m: make(map[int]int, calKernelInts/2)}
	x := uint64(88172645463325252)
	for i := range k.data { // xorshift: the same data on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.data[i] = int(x >> 1)
	}
	return k
}

func (k *kernel) run() {
	copy(k.buf, k.data)
	sort.Ints(k.buf)
	clear(k.m)
	for i := 0; i < len(k.buf)/2; i++ {
		k.m[k.buf[2*i]] = i
	}
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// affinity returns the calling thread's affinity mask.
func affinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

// setAffinity sets the calling thread's affinity mask. A failure leaves
// the thread where it was, which only blurs the sample.
func setAffinity(m cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}

func pinTo(cpu int) {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	setAffinity(m)
}
