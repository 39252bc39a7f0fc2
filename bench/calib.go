package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This box is a shared 2-vCPU guest. Its speed is not a constant: the
// first few hundred ms after idle run at half speed, neighbours take a
// quarter of a slice's throughput for seconds, and in between both the
// clock and the memory system wander by ±10% over tens of seconds. A
// calibration is a fixed amount of work (a dependent-load chase through a
// buffer far larger than L2, then an xorshift loop, on every core) timed
// before and after every slice. It is used twice.
//
// Guard: a slice bracketed by a calibration much slower than the median of
// those this process has taken did not have the machine to itself, and is
// measured again. The median, not the fastest: one lucky reading (they
// happen: a chase at 27 ms among 33s) would otherwise condemn every normal
// one after it, and did, eight re-runs in a row. The tolerances sit just
// above the calibration's own repeatability here: of 634 calibrations
// taken between slices 1% read further than this from their run's median,
// while the neighbour bursts that cost a slice a quarter of its throughput
// read +20% and +30%. A tighter rule (8% behind the fastest was tried)
// discards half of all slices at random.
//
// Speed: what stays inside the tolerances still moves the results. Over
// 320 slices of the four workloads the bracketing calibrations correlate
// 0.5 to 0.85 with the slice's latency, and dividing the machine's speed
// out (speed, below) cut the spread between ten runs of a metric from 9%
// to 5% on average. So a run's rate and latencies are restated at the
// reference speed (restate, below); the readings as taken stay in the
// run's detail file.
const (
	cpuTolerance = 0.12
	memTolerance = 0.25
	maxReruns    = 8
)

// calibSize fixes the work of one calibration and what it reads at the
// reference speed.
type calibSize struct {
	cpuIters   int     // xorshift steps per core
	chaseWords int     // uint32 cells in the chase buffer (power of two)
	chaseSteps int     // dependent loads per core
	refCpuMs   float64 // the ALU loop and the chase on this box when it is quiet;
	refMemMs   float64 // zero means results are not restated
}

// fullCalib takes ~130 ms on this box: twice ~42 ms of cache misses over
// 64 MiB and twice ~21 ms of ALU work.
var fullCalib = calibSize{cpuIters: 10 << 20, chaseWords: 16 << 20, chaseSteps: 1 << 18, refCpuMs: 20, refMemMs: 36}

type calibration struct{ cpuMs, memMs float64 }

// bracket is the pair of calibrations around one kept slice.
type bracket struct{ before, after calibration }

type calibrator struct {
	size  calibSize
	chase []uint32
	procs int
	start uint32 // rotates so successive chases touch different lines
	all   []calibration
}

func newCalibrator(size calibSize) *calibrator {
	c := &calibrator{size: size, procs: runtime.GOMAXPROCS(0), chase: make([]uint32, size.chaseWords)}
	// A full-period LCG over the index space (Hull–Dobell: c odd, a≡1 mod 4)
	// is one cycle through every cell with no stride a prefetcher can
	// follow, and fills sequentially in milliseconds where shuffling a
	// permutation of 16M cells would take a second of every run.
	mask := uint32(size.chaseWords - 1)
	for i := range c.chase {
		c.chase[i] = (uint32(i)*1664525 + 1013904223) & mask
	}
	return c
}

// calibSink keeps the calibration loops from being optimised away.
var calibSink atomic.Uint64

// onAllCores runs fn on procs goroutines at once and returns the wall
// time until the last one finishes.
func onAllCores(procs int, fn func(id int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// measure runs the calibration twice and keeps the faster reading of each
// part. After a slice that leaves the cores half idle (a closed loop over
// TCP waits on the loopback more than it computes) the first few tens of
// ms run slow while the clock ramps back up; the first pass absorbs that,
// and a real neighbour slows both.
func (c *calibrator) measure() calibration {
	m := calibration{cpuMs: math.Inf(1), memMs: math.Inf(1)}
	for range 2 {
		// The chase goes first: it waits on memory whatever the clock is
		// doing, and by the time the ALU loop starts the cores have been
		// busy for tens of ms.
		c.start += 7919
		mask := uint32(len(c.chase) - 1)
		m.memMs = min(m.memMs, ms(onAllCores(c.procs, func(id int) {
			i := (c.start + uint32(id)*uint32(len(c.chase)/c.procs)) & mask
			for n := 0; n < c.size.chaseSteps; n++ {
				i = c.chase[i]
			}
			calibSink.Add(uint64(i))
		})))
		m.cpuMs = min(m.cpuMs, ms(onAllCores(c.procs, func(id int) {
			x := uint64(id) + 0x9e3779b97f4a7c15
			for i := 0; i < c.size.cpuIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calibSink.Add(x)
		})))
	}
	c.all = append(c.all, m)
	return m
}

func (c *calibrator) slow(m calibration) bool {
	typical := c.median()
	return m.cpuMs > typical.cpuMs*(1+cpuTolerance) || m.memMs > typical.memMs*(1+memTolerance)
}

// guard runs slices 0..n-1 through run, each bracketed by calibrations,
// and repeats a disturbed slice until it is clean or the workload has
// spent maxReruns repeats. It returns the bracket of every kept slice, how
// many repeats it made, and whether every kept slice was clean.
func (c *calibrator) guard(n int, run func(i int)) (kept []bracket, reruns int, clean bool) {
	clean = true
	before := c.measure()
	for i := 0; i < n; {
		run(i)
		b := bracket{before, c.measure()}
		logf("  slice %d: calibration %.1f/%.1f ms cpu, %.1f/%.1f ms mem", i, b.before.cpuMs, b.after.cpuMs, b.before.memMs, b.after.memMs)
		before = b.after
		if c.slow(b.before) || c.slow(b.after) {
			if reruns < maxReruns {
				reruns++
				if c.slow(b.after) {
					// Calibrating again costs a sixteenth of a slice; starting
					// the repeat behind a slow calibration would cost the slice.
					before = c.measure()
				}
				continue
			}
			clean = false
		}
		kept = append(kept, b)
		i++
	}
	return kept, reruns, clean
}

// speed is how fast the machine ran over the kept slices, as a share of
// the reference speed: the geometric mean of how the chase and the ALU
// loop, each at its median over the slices' brackets, compared with their
// reference readings. A workload is part compute and part memory; which
// part, the benchmark cannot know, so the two weigh the same. One factor
// for the whole run, not one per slice: a single calibration repeats to
// about ±5%, which is what it would add to a slice on a quiet machine,
// while the median of sixteen moves only with the machine.
func (c *calibrator) speed(kept []bracket) float64 {
	if c.size.refCpuMs == 0 {
		return 1
	}
	var cpu, mem []float64
	for _, b := range kept {
		cpu = append(cpu, b.before.cpuMs, b.after.cpuMs)
		mem = append(mem, b.before.memMs, b.after.memMs)
	}
	return math.Sqrt(c.size.refCpuMs / median(cpu) * c.size.refMemMs / median(mem))
}

// speedExponent is how much of a speed change reaches a result. Not all of
// a workload's time scales with the machine (a loopback round trip waits on
// wake-ups, a closed loop on its slower caller), and correcting in full
// overshoots when the machine moves far: over 143 runs of the four
// workloads in a slow hour (speed 0.88-1.07) and a fast one (1.05-1.15),
// an exponent of 1 left the medians of the two hours up to 7.6% apart, 0.5
// left more spread inside each hour, and 0.75 kept both smallest (medians
// within 4.8%, mean quartile spread 5.3%, against 9.2% and 8.0% as read).
const speedExponent = 0.75

// restate converts a reading taken at machine speed s to the reference
// speed: rates go down and times up when the machine ran fast.
func restate(v, s float64, rate bool) float64 {
	f := math.Pow(s, speedExponent)
	if rate {
		return v / f
	}
	return v * f
}

// median of the calibrations taken so far.
func (c *calibrator) median() calibration {
	cpu := make([]float64, len(c.all))
	mem := make([]float64, len(c.all))
	for i, m := range c.all {
		cpu[i], mem[i] = m.cpuMs, m.memMs
	}
	return calibration{cpuMs: median(cpu), memMs: median(mem)}
}

// spin keeps every core busy for d, so the governor and the hypervisor
// have both ramped before anything is timed.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	onAllCores(runtime.GOMAXPROCS(0), func(id int) {
		x := uint64(id) + 1
		for time.Now().Before(deadline) {
			for i := 0; i < 1<<16; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}
		calibSink.Add(x)
	})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
