package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/padded"
	"pop/internal/report"
	"pop/internal/telemetry"
)

// trial is the measured phase every runner shares. Run, RunStore and
// RunServe build their target, prefill it, fill in the hooks below and
// call run; what differs between them is set-up, the per-op body of a
// leg, and which result fields they assemble.
//
// Each worker is a chain of legs. A leg runs the op loop on the
// goroutine that owns the worker's handle and reports whether to rotate:
// a rotating leg's goroutine releases the handle and leases a fresh one
// (rotate), then hands the worker to a new goroutine — worker identity
// survives, thread identity does not. The terminal leg keeps its handle,
// parks until every worker is quiescent, and drains from that same
// goroutine (a leased handle has one owner; its flush adopts whatever
// its departed predecessors donated).
//
// run keeps one order, and each step sits where it does for a reason:
//
//  1. telemetry Start — after the caller's prefill, so the base snapshot
//     excludes load-phase noise;
//  2. release, then stop after duration (duration 0: the phase ends when
//     every leg has returned — trace replay);
//  3. quiesce: every worker is out of its op loop; elapsed and the
//     MemStats bracket close here, so in-flight ops that finished after
//     stop are counted with the time they took;
//  4. settle — the caller's snapshot of unreclaimed nodes and per-pass
//     fan-out, and the stop of its fault injectors, taken before any
//     flush reclaims the backlog (a drain also leases every handle into
//     every member and would re-average scanned-per-pass toward the
//     flat number);
//  5. the drain barrier: every terminal leg drains on its own goroutine;
//  6. telemetry Stop — after the barrier, so Timeline.Final counts the
//     drain's passes too; it and the Stats the runner reports load the
//     same counter words, so the two are equal.
type trial struct {
	workers  int
	duration time.Duration // 0 = until every leg has returned

	// leg runs worker id's op loop; true asks for a rotation and another
	// leg. rotate is only called after a leg returned true.
	leg    func(t *trial, id int) (rotate bool)
	rotate func(id int)
	// drain flushes worker id's handle; nil when workers hold none
	// (serve clients), in which case there is no drain barrier either.
	drain func(id int)
	// settle runs between quiescence and the drain barrier; nil = nothing
	// to snapshot. Its error is returned by run after the barrier.
	settle func() error

	// outstanding is polled every peakPeriod for the peak-resident
	// figure; nil = not tracked.
	outstanding func() int64

	// source, with sampleEvery > 0, attaches a live telemetry sampler
	// (extras optional) fed by the workers' published op counts.
	source      telemetry.CoreSource
	extras      telemetry.ExtrasSource
	sampleEvery time.Duration

	stop  atomic.Bool
	start time.Time       // set just before release; legs read it after
	live  []padded.Uint64 // per-worker published ops; nil without a sampler
}

// peakPeriod is how often run polls trial.outstanding.
const peakPeriod = 2 * time.Millisecond

// measured is what run observed of the phase.
type measured struct {
	elapsed    time.Duration // release → quiescence
	peak       int64         // peak outstanding, end-of-phase state included
	mallocs    uint64        // runtime.MemStats deltas across the phase
	allocBytes uint64
	timeline   *telemetry.Timeline // nil unless sampled
}

// perOp divides the allocation deltas by the op count.
func (m measured) perOp(ops uint64) (allocs, bytes float64) {
	if ops == 0 {
		return 0, 0
	}
	return float64(m.mallocs) / float64(ops), float64(m.allocBytes) / float64(ops)
}

func (t *trial) run() (measured, error) {
	var sampler *telemetry.Sampler
	if t.source != nil && t.sampleEvery > 0 {
		// Padded: workers publish on owned lines, the sampler sums them.
		t.live = make([]padded.Uint64, t.workers)
		sampler = telemetry.NewSampler(t.source, telemetry.Config{
			Every:  t.sampleEvery,
			Extras: t.extras,
			Ops: func() uint64 {
				var sum uint64
				for i := range t.live {
					sum += t.live[i].Load()
				}
				return sum
			},
		})
	}

	var (
		release  = make(chan struct{})
		drainGo  = make(chan struct{})
		quiesced sync.WaitGroup // workers out of their op loops
		drained  sync.WaitGroup // workers fully done
	)
	var runLeg func(id int)
	runLeg = func(id int) {
		if t.leg(t, id) {
			t.rotate(id)
			go runLeg(id)
			return
		}
		quiesced.Done()
		if t.drain != nil {
			<-drainGo
			t.drain(id)
		}
		drained.Done()
	}
	quiesced.Add(t.workers)
	drained.Add(t.workers)
	for i := 0; i < t.workers; i++ {
		go func(id int) {
			<-release
			runLeg(id)
		}(i)
	}

	// The peak sampler owns m.peak until peakDone closes.
	var m measured
	notePeak := func() {
		if v := t.outstanding(); v > m.peak {
			m.peak = v
		}
	}
	peakDone := make(chan struct{})
	go func() {
		defer close(peakDone)
		for t.outstanding != nil && !t.stop.Load() {
			notePeak()
			time.Sleep(peakPeriod)
		}
	}()

	if sampler != nil {
		sampler.Start()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.start = time.Now()
	close(release)
	if t.duration > 0 {
		time.Sleep(t.duration)
		t.stop.Store(true)
	}
	quiesced.Wait()
	m.elapsed = time.Since(t.start)
	t.stop.Store(true) // duration 0: the last leg's return was the end
	runtime.ReadMemStats(&after)
	if m.elapsed <= 0 {
		m.elapsed = time.Nanosecond
	}
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	<-peakDone
	if t.outstanding != nil {
		notePeak() // end-of-phase state, before any flush reclaims the backlog
	}

	var err error
	if t.settle != nil {
		err = t.settle()
	}
	close(drainGo)
	drained.Wait()
	if sampler != nil {
		m.timeline = sampler.Stop()
	}
	return m, err
}

// livePub publishes one worker's op count to the telemetry sampler on a
// coarse cadence (one Add to an owned padded line every 512 ops —
// invisible next to the ops themselves), so the sampler sees progress
// mid-leg. Without a sampler it does nothing.
type livePub struct {
	c    *padded.Uint64
	sent uint64 // ops already folded into c this leg
}

func (t *trial) livePub(id int) livePub {
	if t.live == nil {
		return livePub{}
	}
	return livePub{c: &t.live[id]}
}

// tick is called after every op with the leg's running op count.
func (p *livePub) tick(ops uint64) {
	if p.c != nil && ops-p.sent >= 512 {
		p.flush(ops)
	}
}

// flush publishes the remainder at the end of a leg.
func (p *livePub) flush(ops uint64) {
	if p.c != nil {
		p.c.Add(ops - p.sent)
		p.sent = ops
	}
}

// tally is one worker's counters: total ops, ops per class, keys (range
// keys, served keys or hits, per runner), value-checksum failures, and
// the per-class latency histograms (nil where a class is not timed).
// Single-writer during the phase; sumTallies folds them afterwards.
type tally struct {
	ops       uint64
	keys      uint64
	valueErrs uint64
	byClass   []uint64
	lats      []*report.Histogram
}

// newTallies makes one tally per worker over `classes` op classes, with
// a histogram for every class timed reports true for.
func newTallies(workers, classes int, timed func(class int) bool) []tally {
	ts := make([]tally, workers)
	for i := range ts {
		ts[i].byClass = make([]uint64, classes)
		ts[i].lats = make([]*report.Histogram, classes)
		for c := range ts[i].lats {
			if timed(c) {
				ts[i].lats[c] = new(report.Histogram)
			}
		}
	}
	return ts
}

// sumTallies folds per-worker tallies into one: counters sum, each
// class's histograms merge (nil when no worker timed the class).
func sumTallies(ts []tally) tally {
	classes := len(ts[0].byClass)
	sum := tally{byClass: make([]uint64, classes), lats: make([]*report.Histogram, classes)}
	per := make([]*report.Histogram, len(ts))
	for i := range ts {
		sum.ops += ts[i].ops
		sum.keys += ts[i].keys
		sum.valueErrs += ts[i].valueErrs
	}
	for c := 0; c < classes; c++ {
		for i := range ts {
			sum.byClass[c] += ts[i].byClass[c]
			per[i] = ts[i].lats[c]
		}
		sum.lats[c] = report.MergeAll(per...)
	}
	return sum
}
