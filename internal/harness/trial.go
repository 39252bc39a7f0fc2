package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/core"
	"pop/internal/padded"
	"pop/internal/report"
	"pop/internal/telemetry"
)

// Core is what every trial reports, whatever its target. Result,
// StoreResult and ServeResult embed it, so each reads these fields by
// name, and code generic over the three reads them through Shared.
type Core struct {
	Ops        uint64  // operations completed in the execution phase
	Throughput float64 // Ops per second of Elapsed

	// Elapsed is the measured execution-phase length, release to
	// quiescence: the configured Duration plus however long the workers'
	// in-flight operations took to finish after stop (for a trace, the
	// replay's length). Every rate divides by it.
	Elapsed time.Duration

	// ValueErrors counts served values that failed the workload
	// checksum. Nonzero means a stale or corrupt value was served — the
	// value-plane symptom of a reclamation bug.
	ValueErrors uint64

	PeakResident int64 // peak outstanding nodes (max resident memory analogue)
	Unreclaimed  int64 // retired-but-unfreed nodes at measurement end (pre-drain)

	// ReclaimDetail is the per-pass fan-out view (pings sent and
	// threads scanned per reclaim pass, averaged across the whole
	// group), taken with Unreclaimed — the quantity domain groups shrink.
	ReclaimDetail core.ReclaimStats

	// LeakedAfter is what stays unreclaimed once every worker drained
	// its handle (0 except NR). Serve clients hold no handle, so for a
	// serve trial it is what the server's own handles still hold.
	LeakedAfter int64

	// Allocation accounting: Go-heap allocation rate over the measured
	// phase (runtime.MemStats deltas between release and worker
	// quiescence, divided by Ops) — the whole-process view that makes a
	// hot-path memory diet visible in every sweep, not just in
	// microbenches. Pool-recycled nodes, arena slots and inline values
	// cost zero here; what shows up is whatever the hot loops still ask
	// the Go heap for.
	AllocsPerOp     float64 // heap allocations per operation
	AllocBytesPerOp float64 // heap bytes per operation

	// Reclaim aggregates the reclamation counters across member
	// domains; Reclaim.MaxRetire is the paper's memory plots' max
	// retire-list length.
	Reclaim core.Stats

	// Lifecycle reports thread-slot turnover: releases, peak leases and
	// orphan donation/adoption volumes — the explainability counters
	// for churn (elastic-mode) trials.
	Lifecycle core.LifecycleStats

	// Timeline is the live-telemetry record of the run (nil unless
	// StoreConfig.SampleEvery is set): interval deltas of the
	// reclamation counters, unreclaimed watermarks, per-window
	// ping-ack/pass p99s, and stalled-reader episodes.
	Timeline *telemetry.Timeline
}

// Shared returns the result core; Result, StoreResult and ServeResult
// promote it.
func (c Core) Shared() Core { return c }

// trial is the set-up and measured phase every runner shares. A runner
// builds its target on the group g, leases the workers' handles
// (lease), prefills (prefill), sets leg and calls run, which returns
// the result core and the workers' summed tallies. What differs between
// runners is the target, how one prefill key is drawn and put, the
// per-op body of a leg, and the fields their results add to Core.
//
// Each worker is a chain of legs. A leg runs the op loop on the
// goroutine that owns the worker's handle and reports whether to
// rotate: a rotating leg's goroutine releases the handle, leases a
// fresh one and hands the worker to a new goroutine — worker identity
// survives, thread identity does not. The terminal leg keeps its
// handle, parks until every worker is quiescent, and drains from that
// same goroutine (a leased handle has one owner; its drain adopts
// whatever its departed predecessors donated). Workers without handles
// (serve clients: the server leases per burst) neither rotate nor
// drain.
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
//  4. settle — the caller's settle hook (its fault injectors stop), then
//     the snapshot of unreclaimed nodes and per-pass fan-out, before any
//     drain reclaims the backlog (a drain also leases every handle into
//     every member and would re-average scanned-per-pass toward the flat
//     number);
//  5. the drain barrier: every terminal leg drains on its own goroutine;
//  6. telemetry Stop — after the barrier, so Timeline.Final counts the
//     drain's passes too; it and Core.Reclaim load the same counter
//     words, so the two are equal.
type trial struct {
	g        *core.DomainGroup
	workers  int
	duration time.Duration // 0 = until every leg has returned

	// handles holds each worker's leased handle; nil when workers hold
	// none.
	handles []*core.GroupHandle
	tallies []tally // one per worker (newTallies)

	// leg runs worker id's op loop; true asks for a rotation and another
	// leg.
	leg func(t *trial, id int) (rotate bool)
	// settle, when set, opens the settle step; run returns its error
	// after the barrier.
	settle func() error

	// outstanding is polled every peakPeriod for the peak-resident
	// figure.
	outstanding func() int64

	// sampleEvery > 0 attaches a live telemetry sampler over g (extras
	// optional) fed by the workers' published op counts.
	sampleEvery time.Duration
	extras      telemetry.ExtrasSource

	stop  atomic.Bool
	start time.Time       // set just before release; legs read it after
	live  []padded.Uint64 // per-worker published ops; nil without a sampler
}

// peakPeriod is how often run polls trial.outstanding.
const peakPeriod = 2 * time.Millisecond

// lease acquires n handles from g, in worker order, on the error path:
// a capacity misconfiguration fails the trial with a message instead of
// a stack trace.
func lease(g *core.DomainGroup, n int) ([]*core.GroupHandle, error) {
	hs := make([]*core.GroupHandle, n)
	for i := range hs {
		h, err := g.Acquire()
		if err != nil {
			return nil, fmt.Errorf("harness: worker %d: %w", i, err)
		}
		hs[i] = h
	}
	return hs, nil
}

// prefill loads a target before the measured phase, one goroutine per
// handle (a leased handle has one owner). Handle i inserts quota(i)
// keys through the loader load builds for it; first is the sum of the
// quotas before i, for loaders that walk one shared key list. Each call
// of a loader draws and puts one key and reports whether it inserted
// one. A loader gives up after 50×quota+1000 calls: the range is
// saturated (heavily duplicated draws), which is good enough for a
// prefill.
func prefill(handles []*core.GroupHandle, quota func(i int) int64,
	load func(i int, h *core.GroupHandle, first int64) (put func() bool)) {
	var wg sync.WaitGroup
	first := int64(0)
	for i, h := range handles {
		q, put := quota(i), load(i, h, first)
		first += q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done, calls := int64(0), int64(0); done < q && calls <= 50*q+1000; calls++ {
				if put() {
					done++
				}
			}
		}()
	}
	wg.Wait()
}

// share is one of peers' shares of total: an even split, with the
// remainder on the first peer.
func share(total, peers int64, first bool) int64 {
	q := total / peers
	if first {
		q += total - q*peers
	}
	return q
}

// run executes the measured phase and returns the result core and the
// workers' tallies, summed.
func (t *trial) run() (Core, tally, error) {
	var sampler *telemetry.Sampler
	if t.sampleEvery > 0 {
		// Padded: workers publish on owned lines, the sampler sums them.
		t.live = make([]padded.Uint64, t.workers)
		sampler = telemetry.NewSampler(t.g, telemetry.Config{
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
			// A churned leg returns its handle to the group (donating its
			// unreclaimed retires member by member) and re-leases a slot.
			t.g.Release(t.handles[id])
			h, err := t.g.Acquire()
			if err != nil {
				// Unreachable: every chain holds at most one handle, so a
				// slot is always free for the successor.
				panic(fmt.Sprintf("harness: churn re-lease: %v", err))
			}
			t.handles[id] = h
			go runLeg(id)
			return
		}
		quiesced.Done()
		if t.handles != nil {
			// Drain, not Flush: churned predecessors may have donated
			// orphans to members this terminal leg never touched.
			<-drainGo
			t.handles[id].Drain()
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

	// The peak sampler owns c.PeakResident until peakDone closes.
	var c Core
	notePeak := func() {
		if v := t.outstanding(); v > c.PeakResident {
			c.PeakResident = v
		}
	}
	peakDone := make(chan struct{})
	go func() {
		defer close(peakDone)
		for !t.stop.Load() {
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
	c.Elapsed = time.Since(t.start)
	t.stop.Store(true) // duration 0: the last leg's return was the end
	runtime.ReadMemStats(&after)
	if c.Elapsed <= 0 {
		c.Elapsed = time.Nanosecond
	}
	<-peakDone
	notePeak() // end-of-phase state, before any drain reclaims the backlog

	var err error
	if t.settle != nil {
		err = t.settle()
	}
	c.Unreclaimed = t.g.Unreclaimed()
	c.ReclaimDetail = t.g.ReclaimStats()
	close(drainGo)
	drained.Wait()
	if sampler != nil {
		c.Timeline = sampler.Stop()
	}
	c.LeakedAfter = t.g.Unreclaimed()
	c.Reclaim = t.g.Stats()
	c.Lifecycle = t.g.Lifecycle()

	sum := sumTallies(t.tallies)
	c.Ops, c.ValueErrors = sum.ops, sum.valueErrs
	c.Throughput = float64(c.Ops) / c.Elapsed.Seconds()
	if c.Ops > 0 {
		c.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(c.Ops)
		c.AllocBytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(c.Ops)
	}
	return c, sum, err
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
//
// A worker counts in locals and folds them in once per leg (add): the
// tallies lie side by side in one slice, so a per-op count there would
// write a cache line an adjacent worker writes too. The histograms are
// separate heap allocations, so recording into them per op shares no
// line.
type tally struct {
	ops       uint64
	keys      uint64
	valueErrs uint64
	byClass   []uint64
	lats      []*report.Histogram
}

// add folds one leg's counts into c; a churned worker's counts span
// many legs. The serve clients pass a nil byClass (their latency
// histograms carry those counts), so their tallies keep no class counts;
// c.byClass grows to the longest byClass folded in.
func (c *tally) add(ops, keys, valueErrs uint64, byClass []uint64) {
	c.ops += ops
	c.keys += keys
	c.valueErrs += valueErrs
	if n := len(byClass) - len(c.byClass); n > 0 {
		c.byClass = append(c.byClass, make([]uint64, n)...)
	}
	for i, n := range byClass {
		c.byClass[i] += n
	}
}

// newTallies makes one tally per worker over `classes` op classes, with
// a histogram for every class timed reports true for.
func newTallies(workers, classes int, timed func(class int) bool) []tally {
	ts := make([]tally, workers)
	for i := range ts {
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
	classes := len(ts[0].lats)
	sum := tally{lats: make([]*report.Histogram, classes)}
	per := make([]*report.Histogram, len(ts))
	for i := range ts {
		sum.add(ts[i].ops, ts[i].keys, ts[i].valueErrs, ts[i].byClass)
	}
	for c := 0; c < classes; c++ {
		for i := range ts {
			per[i] = ts[i].lats[c]
		}
		sum.lats[c] = report.MergeAll(per...)
	}
	return sum
}
