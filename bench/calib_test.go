package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// testCalib is a calibration of ~20 ms: long enough that scheduler
// jitter stays well under the disturbance tolerance.
var testCalib = calibSize{cpuIters: 6 << 20, chaseWords: 1 << 20, chaseSteps: 1 << 16}

// settled returns a calibrator that has seen enough of the quiet machine
// that the slow readings of one test cannot become its median.
func settled() *calibrator {
	c := newCalibrator(testCalib)
	for range 2*(2+maxReruns) + 5 {
		c.measure()
	}
	return c
}

// hog occupies every core with busy goroutines until stopped: what a
// neighbour taking the machine looks like from inside.
type hog struct {
	stop atomic.Bool
	wg   sync.WaitGroup
}

func startHog() *hog {
	h := new(hog)
	for range runtime.GOMAXPROCS(0) {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			x := uint64(1)
			for !h.stop.Load() {
				for range 1 << 12 {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			calibSink.Add(x)
		}()
	}
	return h
}

func (h *hog) halt() {
	h.stop.Store(true)
	h.wg.Wait()
}

// TestGuardRerunsADisturbedSlice loads every core from the middle of one
// slice through its closing calibration. The guard must call the slice
// disturbed, run it again, and end clean once the load is gone.
func TestGuardRerunsADisturbedSlice(t *testing.T) {
	c := settled()
	var h *hog
	runs := make([]int, 3)
	kept, reruns, clean := c.guard(len(runs), func(i int) {
		runs[i]++
		if h != nil {
			h.halt() // the re-run has the machine to itself
			h = nil
		} else if i == 1 && runs[1] == 1 {
			h = startHog()
		}
	})
	if h != nil {
		h.halt()
		t.Fatal("the disturbed slice was never run again")
	}
	if runs[1] < 2 || reruns < 1 {
		t.Errorf("slice 1 ran %d times with %d re-runs; it was disturbed and should have been repeated", runs[1], reruns)
	}
	if !clean || len(kept) != len(runs) {
		t.Errorf("clean:%t with %d kept slices after the load went away (runs %v, %d re-runs)", clean, len(kept), runs, reruns)
	}
}

// TestGuardGivesUpAtTheCap keeps the load on: every repeat is disturbed
// too, so the guard must stop at maxReruns and report clean:false.
func TestGuardGivesUpAtTheCap(t *testing.T) {
	c := settled()
	h := startHog()
	defer h.halt()
	total := 0
	_, reruns, clean := c.guard(2, func(int) { total++ })
	if reruns != maxReruns || clean {
		t.Errorf("%d re-runs, clean:%t under constant load; want %d and false", reruns, clean, maxReruns)
	}
	if total != 2+maxReruns {
		t.Errorf("ran %d slices, want %d", total, 2+maxReruns)
	}
}
