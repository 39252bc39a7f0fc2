// Package harness runs one benchmark trial: a data structure × a
// reclamation policy × a workload × a thread count, following the
// methodology of the paper's §5.0.2 — prefill to half the key range,
// then a timed execution phase of randomly mixed operations — and
// collecting the metrics its figures plot: throughput, maximum
// retire-list length, peak resident (outstanding) nodes, and unreclaimed
// nodes at the end of the run.
//
// The data structures implement the ds.Map contract, so every trial is
// a KV trial: reads are Gets whose returned values are verified against
// the workload layer's checksum (Result.ValueErrors — a nonzero count
// is the value-plane symptom of a use-after-free), inserts carry
// encoded payloads, and mixes with an OverwritePct component issue
// upsert Puts that replace values on present keys (retiring nodes on
// the replace-node structures). Counters split per operation class
// (get/put/overwrite/delete/scan), and with Config.OpLatency set each
// worker records every operation's wall-clock latency into a per-class
// report.Histogram (merged across workers into Result.OpLat via one
// shared helper), so p50/p99 read and write tails are comparable across
// policies — the update-path tails where NBR restart storms and HP
// fence costs live.
//
// Mixes with a RangePct component additionally account range queries
// (ops, keys returned, throughput) and always record every scan's
// latency (Result.ScanLat, an alias of the scan class in OpLat), the
// long-read tail metric the figures and popbench sweeps compare across
// policies. Range-bearing mixes require a structure implementing
// ds.RangeScanner — DSSkipList or DSABTree, whose scans stress
// reservations in opposite ways (per-node chains vs whole leaves); use
// RangeCapable to test by name.
//
// Worker "threads" are goroutines; sweeping the thread count past
// runtime.GOMAXPROCS reproduces the paper's oversubscription regime
// (§5.0.2 runs 1..288 threads on 144 hardware threads).
package harness

import (
	"fmt"
	"sync"
	"time"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/abtree"
	"pop/internal/ds/extbst"
	"pop/internal/ds/hashtable"
	"pop/internal/ds/hmlist"
	"pop/internal/ds/lazylist"
	"pop/internal/ds/skiplist"
	"pop/internal/report"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

// DS names accepted by Config.DS, matching the paper's abbreviations
// (plus the skiplist, which is this repository's extension).
const (
	DSHarrisMichaelList = "hml"  // Harris-Michael list
	DSLazyList          = "ll"   // lazy list
	DSHashTable         = "hmht" // hash table over HML buckets
	DSExternalBST       = "dgt"  // external BST (David-Guerraoui-Trigonakis)
	DSABTree            = "abt"  // (a,b)-tree
	DSSkipList          = "skl"  // lock-free skiplist (range queries)
)

// DSNames lists the supported data structures in the paper's order,
// then the extensions.
func DSNames() []string {
	return []string{DSExternalBST, DSHashTable, DSABTree, DSHarrisMichaelList, DSLazyList, DSSkipList}
}

// OpClass is one operation class for counters and latency histograms.
type OpClass int

// The operation classes, in reporting order.
const (
	OpGet OpClass = iota
	OpPut
	OpOverwrite
	OpDelete
	OpScan
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{"get", "put", "overwrite", "delete", "scan"}

// String returns the class's reporting name.
func (c OpClass) String() string {
	if c >= 0 && c < NumOpClasses {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", int(c))
}

// MixShare returns the class's percentage share of a mix — the one
// OpClass↔Mix mapping, used by reporting layers to decide which
// latency columns a mix can populate.
func (c OpClass) MixShare(m workload.Mix) int {
	switch c {
	case OpGet:
		return m.ContainsPct
	case OpPut:
		return m.InsertPct
	case OpOverwrite:
		return m.OverwritePct
	case OpDelete:
		return m.DeletePct
	default:
		return m.RangePct
	}
}

// classOf maps a workload operation to its reporting class.
func classOf(op workload.Op) OpClass {
	switch op {
	case workload.Contains:
		return OpGet
	case workload.Insert:
		return OpPut
	case workload.Overwrite:
		return OpOverwrite
	case workload.Delete:
		return OpDelete
	default:
		return OpScan
	}
}

// Config describes one trial.
type Config struct {
	DS       string        // data structure (DS* constants)
	Policy   core.Policy   // reclamation scheme
	Threads  int           // worker count
	Duration time.Duration // execution-phase length
	KeyRange int64         // keys drawn from [0, KeyRange)
	Mix      workload.Mix  // operation mixture
	Seed     uint64        // trial seed (reproducible)
	NoPrefil bool          // skip prefilling to KeyRange/2

	// RangeSpan is the width of RangeQuery scans (keys per scan;
	// default workload.DefaultRangeSpan). Only used when Mix.RangePct
	// is nonzero, which requires a DS implementing ds.RangeScanner.
	RangeSpan int64

	// Dist selects the key-popularity distribution (uniform by
	// default; workload.Zipf with ZipfS skew models skewed serving
	// traffic). LongReads role mixes keep their uniform draws.
	Dist  workload.Dist
	ZipfS float64

	// Churn enables the elastic mode: each worker releases its thread
	// handle after Churn.AfterOps operations (donating unreclaimed
	// retires to the domain's orphan queue) and respawns as a fresh
	// goroutine re-leasing a slot. Result.Lifecycle reports the
	// turnover the run generated.
	Churn workload.Churn

	// OpLatency enables per-operation latency histograms for the
	// get/put/overwrite/delete classes (two clock reads per operation —
	// measurable on sub-100ns operations, so figure reproductions leave
	// it off; popbench direct sweeps and the KV figures turn it on).
	// Scan latency is always recorded when the mix scans.
	OpLatency bool

	// Reclamation tuning (0 = paper defaults; see core.Options).
	ReclaimThreshold int
	EpochFreq        int
	CMult            int
	BatchSize        int

	// LongReads enables the §5.1.2 asymmetric workload: the first half of
	// the threads run contains-only over the whole key range; the second
	// half run 50/50 insert/delete over the lowest 5% of the range ("near
	// the head of the list").
	LongReads bool

	// Stall configures the robustness scenario: worker 0 periodically
	// holds an operation open for StallLength while remaining responsive
	// to pings (a thread busy with other work). Non-robust schemes stop
	// reclaiming for the stall's duration.
	StallEvery  time.Duration
	StallLength time.Duration

	// SamplePeriod is the memory-sampling interval (default 2ms).
	SamplePeriod time.Duration

	// SampleEvery enables live telemetry: an interval sampler snapshots
	// the domain's counters every SampleEvery and Result.Timeline
	// carries the per-window deltas, stall episodes, and whole-run
	// latency histograms. Zero (the default) disables sampling and with
	// it its one per-op cost, the workers' op-count publish; the
	// counters it reads are kept either way (a read writes none).
	SampleEvery time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Threads <= 0 {
		return c, fmt.Errorf("harness: Threads must be positive")
	}
	if c.KeyRange <= 1 {
		return c, fmt.Errorf("harness: KeyRange must exceed 1")
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Millisecond
	}
	if c.Mix == (workload.Mix{}) {
		c.Mix = workload.UpdateHeavy
	}
	// Validate the mix/key-range pair exactly the way workers will build
	// their generators, so a bad config surfaces as an error here instead
	// of a panic mid-sweep.
	if _, err := workload.NewGeneratorErr(1, c.Mix, c.KeyRange); err != nil {
		return c, fmt.Errorf("harness: %w", err)
	}
	if c.RangeSpan <= 0 {
		c.RangeSpan = workload.DefaultRangeSpan
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed_cafe
	}
	return c, nil
}

// Result is the outcome of one trial.
type Result struct {
	Config Config

	Ops        uint64  // operations completed in the execution phase
	ReadOps    uint64  // get/contains operations completed (== OpCounts[OpGet])
	RangeOps   uint64  // range queries completed (== OpCounts[OpScan])
	RangeKeys  uint64  // keys returned across all range queries
	Throughput float64 // Ops per second of Elapsed
	ReadTput   float64 // ReadOps per second (Fig. 4's metric)
	RangeTput  float64 // RangeOps per second

	// Elapsed is the measured execution-phase length, release to
	// quiescence: Config.Duration plus however long the workers' in-flight
	// operations took to finish after stop. Every rate divides by it.
	Elapsed time.Duration

	// OpCounts splits Ops by operation class (get/put/overwrite/
	// delete/scan) — the KV serving view of the trial.
	OpCounts [NumOpClasses]uint64

	// ValueErrors counts Get results whose value failed the workload
	// checksum. Nonzero means a stale or corrupt value was served —
	// the value-plane symptom of a reclamation bug.
	ValueErrors uint64

	MaxRetire    int   // max retire-list length across threads (paper's memory plots)
	PeakResident int64 // peak outstanding nodes (max resident memory analogue)
	Unreclaimed  int64 // retired-but-unfreed nodes at measurement end (pre-flush)
	LeakedAfter  int64 // unreclaimed after a quiescent flush (0 except NR)

	// Allocation accounting: Go-heap allocation rate over the measured
	// phase (runtime.MemStats deltas between release and worker
	// quiescence, divided by Ops) — the whole-process view that makes a
	// hot-path memory diet visible in every sweep, not just in
	// microbenches. Pool-recycled nodes and arena slots cost zero here;
	// what shows up is whatever the hot loops still ask the Go heap for.
	AllocsPerOp     float64 // heap allocations per operation
	AllocBytesPerOp float64 // heap bytes per operation

	// OpLat holds per-class latency histograms (ns), merged across
	// workers. The scan class is populated whenever the mix scans; the
	// other classes only when Config.OpLatency is set. Absent classes
	// are nil.
	OpLat [NumOpClasses]*report.Histogram

	// ScanLat aliases OpLat[OpScan]: every range scan's wall-clock
	// latency, the long-read tail metric (p50/p99) per policy. Nil when
	// the mix has no RangePct component.
	ScanLat *report.Histogram

	Reclaim core.Stats // aggregated reclamation counters

	// Lifecycle reports thread-slot turnover: releases, peak leases and
	// orphan donation/adoption volumes — the explainability counters
	// for churn (elastic-mode) trials.
	Lifecycle core.LifecycleStats

	// Timeline is the live-telemetry record of the run (nil unless
	// Config.SampleEvery is set): interval deltas of the reclamation
	// counters, unreclaimed watermarks, per-window ping-ack/pass p99s,
	// and stalled-reader episodes.
	Timeline *telemetry.Timeline
}

// build instantiates the data structure named in cfg.
func build(cfg Config, d *core.Domain) (ds.MemMap, error) {
	switch cfg.DS {
	case DSHarrisMichaelList:
		return hmlist.New(d), nil
	case DSLazyList:
		return lazylist.New(d), nil
	case DSHashTable:
		return hashtable.New(d, cfg.KeyRange, 6), nil
	case DSExternalBST:
		return extbst.New(d), nil
	case DSABTree:
		return abtree.New(d), nil
	case DSSkipList:
		return skiplist.New(d), nil
	default:
		return nil, fmt.Errorf("harness: unknown data structure %q", cfg.DS)
	}
}

// RangeCapable reports whether the named data structure supports range
// queries (implements ds.RangeScanner) and may therefore run mixes with
// a RangePct component. It answers by building a throwaway instance, so
// it stays in sync with build automatically.
func RangeCapable(name string) bool {
	m, err := build(Config{DS: name, KeyRange: 2}, core.NewDomain(core.NR, 1, nil))
	if err != nil {
		return false
	}
	_, ok := m.(ds.RangeScanner)
	return ok
}

// workerRole resolves worker id's operation mix and key range. Under
// LongReads (§5.1.2) the first half of the workers run contains-only
// over the whole range and the second half run update-heavy over the
// lowest 5% ("near the head of the list"); otherwise every worker runs
// the configured mix.
func workerRole(cfg Config, id int) (workload.Mix, int64) {
	if !cfg.LongReads {
		return cfg.Mix, cfg.KeyRange
	}
	if id < cfg.Threads/2 || cfg.Threads == 1 {
		return workload.Mix{ContainsPct: 100}, cfg.KeyRange
	}
	keyRange := cfg.KeyRange / 20
	if keyRange < 2 {
		keyRange = 2
	}
	return workload.UpdateHeavy, keyRange
}

// Run executes one trial.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	// A flat domain is a group of one: the structure lives on member 0
	// and handles are leased the way RunStore leases them.
	g := core.NewDomainGroup(cfg.Policy, 1, cfg.Threads, &core.Options{
		ReclaimThreshold: cfg.ReclaimThreshold,
		EpochFreq:        cfg.EpochFreq,
		CMult:            cfg.CMult,
		BatchSize:        cfg.BatchSize,
	})
	m, err := build(cfg, g.Member(0))
	if err != nil {
		return Result{}, err
	}
	if cfg.Mix.RangePct > 0 {
		if _, ok := m.(ds.RangeScanner); !ok {
			return Result{}, fmt.Errorf("harness: mix has RangePct=%d but %q does not support range queries", cfg.Mix.RangePct, cfg.DS)
		}
	}
	// All handles flow through the group's lease facade: workers lease
	// their slot (error-returning path, so a misconfigured sweep fails
	// with a message instead of a stack trace) and, in churn mode,
	// release and re-lease it mid-measurement.
	handles := make([]*core.GroupHandle, cfg.Threads)
	for i := range handles {
		h, err := g.Acquire()
		if err != nil {
			return Result{}, fmt.Errorf("harness: worker %d: %w", i, err)
		}
		h.Member(0) // leased here, in worker order, so thread ids follow worker ids
		handles[i] = h
	}

	// Per-worker generators go through the error-returning constructor
	// up front: a bad role-derived mix surfaces here as an error instead
	// of panicking inside a worker goroutine mid-sweep.
	gens := make([]*workload.Generator, cfg.Threads)
	for i := range gens {
		mix, keyRange := workerRole(cfg, i)
		gen, err := workload.NewGeneratorErr(cfg.Seed+uint64(i)*0x9e3779b97f4a7c15+1, mix, keyRange)
		if err != nil {
			return Result{}, fmt.Errorf("harness: worker %d: %w", i, err)
		}
		gen.SetRangeSpan(cfg.RangeSpan)
		if cfg.Dist != workload.Uniform && !cfg.LongReads {
			if err := gen.SetDist(cfg.Dist, cfg.ZipfS); err != nil {
				return Result{}, fmt.Errorf("harness: worker %d: %w", i, err)
			}
		}
		gens[i] = gen
	}

	// Scans are always timed when the mix scans; the other classes only
	// under OpLatency, so figure reproductions don't pay the clock reads.
	workers := newTallies(cfg.Threads, int(NumOpClasses), func(c int) bool {
		if OpClass(c) == OpScan {
			return cfg.Mix.RangePct > 0
		}
		return cfg.OpLatency
	})

	if !cfg.NoPrefil {
		if err := prefill(cfg, m, handles); err != nil {
			return Result{}, err
		}
	}

	var unreclaimed int64
	t := &trial{
		workers:  cfg.Threads,
		duration: cfg.Duration,
		// A leg ends at stop or, in churn mode, after Churn.AfterOps
		// operations; the churned handle goes back through the group.
		leg: func(t *trial, id int) bool {
			runWorker(cfg, m, handles[id].Member(0), gens[id], id, t, &workers[id])
			return cfg.Churn.Enabled() && !t.stop.Load()
		},
		rotate: func(id int) {
			g.Release(handles[id])
			h, err := g.Acquire()
			if err != nil {
				// Unreachable: every chain holds at most one handle, so a
				// slot is always free for the successor.
				panic(fmt.Sprintf("harness: churn re-lease: %v", err))
			}
			handles[id] = h
		},
		drain:        func(id int) { handles[id].Drain() },
		settle:       func() error { unreclaimed = g.Unreclaimed(); return nil },
		outstanding:  m.Outstanding,
		samplePeriod: cfg.SamplePeriod,
		source:       g,
		sampleEvery:  cfg.SampleEvery,
	}
	ph, _ := t.run()

	sum := sumTallies(workers)
	res := Result{
		Config:       cfg,
		Ops:          sum.ops,
		RangeKeys:    sum.keys,
		ValueErrors:  sum.valueErrs,
		Elapsed:      ph.elapsed,
		PeakResident: ph.peak,
		Unreclaimed:  unreclaimed,
		LeakedAfter:  g.Unreclaimed(),
		Reclaim:      g.Stats(),
		Lifecycle:    g.Lifecycle(),
		Timeline:     ph.timeline,
	}
	copy(res.OpCounts[:], sum.byClass)
	copy(res.OpLat[:], sum.lats)
	res.ReadOps = res.OpCounts[OpGet]
	res.RangeOps = res.OpCounts[OpScan]
	res.ScanLat = res.OpLat[OpScan]
	res.AllocsPerOp, res.AllocBytesPerOp = ph.perOp(res.Ops)
	secs := ph.elapsed.Seconds()
	res.Throughput = float64(res.Ops) / secs
	res.ReadTput = float64(res.ReadOps) / secs
	res.RangeTput = float64(res.RangeOps) / secs
	res.MaxRetire = res.Reclaim.MaxRetire
	return res, nil
}

// runWorker is one worker leg's execution phase. gen is the worker's
// private generator (already role-resolved, see workerRole; it rides
// the whole leg chain, so churn changes thread identity but not the op
// stream). Counters accumulate in stack locals and fold into c once
// after the loop: the tallies are contiguous, so per-op stores there
// would false-share cache lines between adjacent workers on the
// harness's hottest path. (The histograms are separate heap
// allocations, so recording into them does not share lines across
// workers.) In churn mode the loop additionally ends after
// cfg.Churn.AfterOps operations so the trial can rotate the handle.
func runWorker(cfg Config, m ds.MemMap, th *core.Thread, gen *workload.Generator, id int, t *trial, c *tally) {
	scanner, _ := m.(ds.RangeScanner) // non-nil whenever mix.RangePct > 0
	stop := &t.stop
	live := t.livePub(id)

	staller := cfg.StallEvery > 0 && cfg.StallLength > 0 && id == 0
	nextStall := time.Now().Add(cfg.StallEvery)

	quota := cfg.Churn.AfterOps // 0 = no churn: run until stop
	var (
		ops       uint64
		byClass   [NumOpClasses]uint64
		rangeKeys uint64
		valueErrs uint64
	)
	for !stop.Load() && (quota == 0 || ops < quota) {
		if staller && time.Now().After(nextStall) {
			// Busy delay inside an operation: the thread pins its epoch /
			// read position but keeps answering pings, exactly the
			// "delayed but running" scenario EpochPOP is built for.
			th.StartOp()
			end := time.Now().Add(cfg.StallLength)
			for time.Now().Before(end) && !stop.Load() {
				th.Poll()
			}
			th.EndOp()
			nextStall = time.Now().Add(cfg.StallEvery)
		}
		op, key := gen.Next()
		class := classOf(op)
		hist := c.lats[class]
		var start time.Time
		if hist != nil {
			start = time.Now()
		}
		switch op {
		case workload.Contains: // Get: verify the served value's checksum
			if v, ok := m.Get(th, key); ok && !workload.ValueValid(key, v) {
				valueErrs++
			}
		case workload.Insert: // Put-if-absent with an encoded payload
			m.PutIfAbsent(th, key, gen.Value(key))
		case workload.Overwrite: // upsert Put: replaces values on present keys
			m.Put(th, key, gen.Value(key))
		case workload.Delete:
			m.Delete(th, key)
		default: // workload.RangeQuery
			rangeKeys += uint64(scanner.RangeCount(th, key, key+gen.RangeSpan()-1))
		}
		if hist != nil {
			hist.Record(time.Since(start).Nanoseconds())
		}
		byClass[class]++
		ops++
		live.tick(ops)
	}
	live.flush(ops)
	// Accumulate (don't overwrite): a churned worker's counters span
	// many legs.
	c.ops += ops
	c.keys += rangeKeys
	c.valueErrs += valueErrs
	for i := range byClass {
		c.byClass[i] += byClass[i]
	}
}

// prefill inserts until the structure holds about KeyRange/2 keys
// (§5.0.2), splitting the work across all threads. Runs on the worker
// threads'"own" goroutines to respect handle ownership. Prefilled keys
// carry encoded values so execution-phase Gets verify from the start.
func prefill(cfg Config, m ds.MemMap, handles []*core.GroupHandle) error {
	target := cfg.KeyRange / 2
	per := target / int64(len(handles))
	extra := target - per*int64(len(handles))
	var wg sync.WaitGroup
	for i, h := range handles {
		quota := per
		if i == 0 {
			quota += extra
		}
		gen, err := workload.NewGeneratorErr(cfg.Seed^0xfeed+uint64(i), workload.UpdateHeavy, cfg.KeyRange)
		if err != nil {
			return fmt.Errorf("harness: prefill: %w", err)
		}
		wg.Add(1)
		go func(th *core.Thread, gen *workload.Generator, quota int64) {
			defer wg.Done()
			done := int64(0)
			attempts := int64(0)
			for done < quota {
				k := gen.Key()
				if m.PutIfAbsent(th, k, gen.Value(k)) {
					done++
				}
				attempts++
				if attempts > 50*quota+1000 {
					// The range is saturated (heavily duplicated draws);
					// good enough for a prefill.
					return
				}
			}
		}(h.Member(0), gen, quota)
	}
	wg.Wait()
	return nil
}
