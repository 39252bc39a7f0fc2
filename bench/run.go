package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// options is everything about a run that is not the workload: how long it
// measures and how hard it guards against noise. The defaults are the
// benchmark; the smoke test shrinks them.
type options struct {
	seconds  float64       // the measured phase, cut into slices
	slices   int           // metrics are medians over this many slices
	setups   int           // setup_s is the median of this many set-ups
	spin     time.Duration // machine warm-up before anything is timed
	calib    calibSize
	floorP50 uint64 // fewest samples of a class in a slice for its p50 ...
	floorP99 uint64 // ... and for its p99; fewer is an error, not a quieter number
	outDir   string
	shrink   int // divide populations and op counts by this (smoke test)

	paperSlice  time.Duration // paper rung: one slice of one policy
	paperRounds int           // alternating rounds per policy
	paperFloors bool          // fail the run when a headline ratio falls under its floor
}

func defaultOptions() options {
	return options{
		seconds: 16, slices: 8, setups: 3, spin: time.Second, calib: fullCalib,
		floorP50: 500, floorP99: 1000, outDir: "bench/out", shrink: 1,
		paperSlice: 300 * time.Millisecond, paperRounds: 5, paperFloors: true,
	}
}

func (o options) sliceLen() time.Duration {
	return time.Duration(o.seconds / float64(o.slices) * float64(time.Second))
}

// scaled applies o.shrink to a workload.
func (o options) scaled(sp spec) spec {
	if o.shrink > 1 {
		if sp.kind != kindList {
			sp.keys = max(sp.keys/int64(o.shrink), 1024)
		}
		sp.warmOps = max(sp.warmOps/o.shrink, 1000)
		sp.traceOps = max(sp.traceOps/o.shrink, 2000)
	}
	return sp
}

// metrics maps a metric name to its value.
type metrics map[string]float64

func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// result is one run of one workload: what the last line of output says,
// plus the detail kept in bench/out.
type result struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Clean     bool                 `json:"clean"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   metrics              `json:"metrics"`
	Speed     float64              `json:"speed,omitempty"`  // machine speed over the kept slices, as a share of the reference
	Raw       metrics              `json:"raw,omitempty"`    // medians over slices as read, before restating at the reference speed
	Min       metrics              `json:"min,omitempty"`    // per-slice extremes, as read
	Max       metrics              `json:"max,omitempty"`    //
	Slices    map[string][]float64 `json:"slices,omitempty"` // every kept slice in order, as read
	Reruns    int                  `json:"reruns"`
	SetupsS   []float64            `json:"setups_s,omitempty"`
	SelfNs    map[string]float64   `json:"self_ns,omitempty"` // traced: per-layer self time, median over traces
	RootNs    float64              `json:"root_ns,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
}

const (
	classRead = iota
	classWrite
	numClasses
)

// sliceStats is one slice of closed-loop work, of one worker or of all.
type sliceStats struct {
	ops    [numClasses]uint64
	failed uint64
	rate   float64 // ops per second, summed over workers
	lat    [numClasses]hist
}

// runSlice runs every worker flat out for d. The latency of an op is the
// distance between two consecutive clock reads, one per op boundary, so
// it includes the generator; each worker stops itself on the clock it
// already read.
func runSlice(ws []worker, d time.Duration) *sliceStats {
	per := make([]sliceStats, len(ws))
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i, w := range ws {
		st := &per[i]
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-release
			epoch := time.Now()
			var prev time.Duration
			for prev < d {
				o := w.draw()
				ok := w.exec(o)
				now := time.Since(epoch)
				c := classRead
				if o.write {
					c = classWrite
				}
				st.lat[c].record(int64(now - prev))
				st.ops[c]++
				if !ok {
					st.failed++
				}
				prev = now
			}
			st.rate = float64(st.ops[classRead]+st.ops[classWrite]) / prev.Seconds()
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	sum := new(sliceStats)
	for i := range per {
		for c := range sum.ops {
			sum.ops[c] += per[i].ops[c]
			sum.lat[c].merge(&per[i].lat[c])
		}
		sum.failed += per[i].failed
		sum.rate += per[i].rate
	}
	return sum
}

// sliceMetrics are the end-to-end metrics computed once per slice.
var sliceMetrics = []struct {
	name  string
	class int
	q     float64
}{
	{"read_p50_us", classRead, 0.5},
	{"write_p50_us", classWrite, 0.5},
	{"read_p99_us", classRead, 0.99},
	{"write_p99_us", classWrite, 0.99},
}

// measure runs the guarded slices on inst and folds them into res. Each
// metric is computed per slice and its median over the slices is restated
// at the reference machine speed (calibrator.speed, restate: a run on a
// slow machine reports about the rate and latencies it would have had at
// full speed). res.Raw keeps the medians as read.
func measure(res *result, inst instance, cal *calibrator, opt options, n int) error {
	ws := inst.workers()
	stats := make([]*sliceStats, n)
	if si, ok := inst.(*serveInst); ok {
		si.deadline(time.Now().Add(time.Duration(n+maxReruns+1)*(opt.sliceLen()+time.Second) + time.Minute))
	}
	var kept []bracket
	kept, res.Reruns, res.Clean = cal.guard(n, func(i int) {
		runtime.GC()
		stats[i] = runSlice(ws, opt.sliceLen())
		logf("  slice %d: %.0f ops/s, read p50 %.2f us", i, stats[i].rate, stats[i].lat[classRead].quantile(0.5)/1e3)
	})
	res.Slices = map[string][]float64{}
	for i, st := range stats {
		res.Attempted += st.ops[classRead] + st.ops[classWrite]
		res.Failed += st.failed
		res.Slices["ops_per_s"] = append(res.Slices["ops_per_s"], st.rate)
		for _, sm := range sliceMetrics {
			floor := opt.floorP50
			if sm.q > 0.5 {
				floor = opt.floorP99
			}
			if n := st.ops[sm.class]; n < floor {
				return fmt.Errorf("slice %d: %d samples for %s, need %d", i, n, sm.name, floor)
			}
			res.Slices[sm.name] = append(res.Slices[sm.name], st.lat[sm.class].quantile(sm.q)/1e3)
		}
	}
	res.Speed = cal.speed(kept)
	logf("  machine speed over the kept slices: %.3f of the reference", res.Speed)
	res.Raw, res.Min, res.Max = metrics{}, metrics{}, metrics{}
	for name, vs := range res.Slices {
		res.Raw.set(name, median(vs))
		res.Min.set(name, slices.Min(vs))
		res.Max.set(name, slices.Max(vs))
		res.Metrics.set(name, restate(median(vs), res.Speed, name == "ops_per_s"))
	}
	return nil
}

// runEndToEnd is the untraced run: machine warm-up, opt.setups set-ups of
// which the last is kept, the guarded slices on it, the heap reading, and
// the end-of-run checks.
func runEndToEnd(sp spec, seed uint64, opt options) (*result, error) {
	sp = opt.scaled(sp)
	res := &result{Workload: sp.name, Seed: seed, Metrics: metrics{}}
	var kt *keyTable
	if sp.kind != kindList {
		kt = newKeyTable(sp.keys)
	}
	cal := newCalibrator(opt.calib)
	spin(opt.spin)

	var inst instance
	for i := range opt.setups {
		if inst != nil {
			if err := inst.finish(); err != nil {
				return nil, fmt.Errorf("%s: set-up %d: %w", sp.name, i-1, err)
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(sp, seed, kt); err != nil {
			return nil, err
		}
		res.SetupsS = append(res.SetupsS, time.Since(t0).Seconds())
	}
	res.Metrics.set("setup_s", median(res.SetupsS))

	if err := measure(res, inst, cal, opt, opt.slices); err != nil {
		inst.finish()
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}

	// What the system holds once the benchmark's own inputs (key table,
	// generators, client buffers) are gone. The calibrator's 64 MiB stay:
	// a constant that keeps a list of a thousand nodes from reporting the
	// runtime's own few hundred KiB of jitter as a 7% heap change.
	inst.retire()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(cal)
	res.Metrics.set("heap_mb", float64(ms.HeapInuse)/(1<<20))

	if err := inst.finish(); err != nil {
		return nil, fmt.Errorf("%s: end-of-run check: %w", sp.name, err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
