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
// the replace-node structures). Counters and latency histograms are
// indexed by workload.Op, whose String is the reporting name
// (get/put/delete/scan/overwrite), and with Config.OpLatency set each
// worker records every operation's wall-clock latency into a per-op
// report.Histogram (merged across workers into Result.OpLat via one
// shared helper), so p50/p99 read and write tails are comparable across
// policies — the update-path tails where NBR restart storms and HP
// fence costs live.
//
// Mixes with a RangePct component additionally account range queries
// (keys returned, throughput) and always record every scan's latency
// (Result.OpLat[workload.RangeQuery]), the long-read tail metric
// popbench sweeps compare across policies. Range-bearing
// mixes require a structure implementing ds.RangeScanner — DSSkipList
// or DSABTree, whose scans stress reservations in opposite ways
// (per-node chains vs whole leaves); use RangeCapable to test by name.
//
// Worker "threads" are goroutines; sweeping the thread count past
// runtime.GOMAXPROCS reproduces the paper's oversubscription regime
// (§5.0.2 runs 1..288 threads on 144 hardware threads).
package harness

import (
	"fmt"
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

// Config describes one trial.
type Config struct {
	DS       string        // data structure (DS* constants)
	Policy   core.Policy   // reclamation scheme
	Threads  int           // worker count
	Duration time.Duration // execution-phase length
	KeyRange int64         // keys drawn from [0, KeyRange)
	Mix      workload.Mix  // operation mixture
	Seed     uint64        // trial seed (reproducible)

	// RangeSpan is the width of RangeQuery scans (keys per scan;
	// default workload.DefaultRangeSpan). Only used when Mix.RangePct
	// is nonzero, which requires a DS implementing ds.RangeScanner.
	RangeSpan int64

	// Dist selects the key-popularity distribution (uniform by
	// default; workload.Zipf, at workload.DefaultZipfS skew, models
	// skewed serving traffic). LongReads role mixes keep their uniform
	// draws.
	Dist workload.Dist

	// Churn enables the elastic mode: each worker releases its thread
	// handle after Churn.AfterOps operations (donating unreclaimed
	// retires to the domain's orphan queue) and respawns as a fresh
	// goroutine re-leasing a slot. Result.Lifecycle reports the
	// turnover the run generated.
	Churn workload.Churn

	// OpLatency enables per-operation latency histograms for the
	// get/put/overwrite/delete classes (two clock reads per operation —
	// measurable on sub-100ns operations, so figure reproductions leave
	// it off; popbench direct sweeps and the nbr-overwrite figure turn
	// it on).
	// Scan latency is always recorded when the mix scans.
	OpLatency bool

	// Reclaim tunes every member domain (zero fields take the paper's
	// defaults; see core.Options).
	Reclaim core.Options

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
	if c.Seed == 0 {
		c.Seed = 0x5eed_cafe
	}
	return c, nil
}

// Result is the outcome of one trial: the shared Core (ValueErrors
// counts Gets whose value failed the checksum) plus the map trial's
// per-op view.
type Result struct {
	Config Config
	Core

	RangeKeys uint64  // keys returned across all range queries
	ReadTput  float64 // gets (OpCounts[workload.Get]) per second (Fig. 4's metric)
	RangeTput float64 // range queries (OpCounts[workload.RangeQuery]) per second

	// OpCounts splits Ops by operation kind — the KV serving view of
	// the trial.
	OpCounts [workload.NumOps]uint64

	// OpLat holds per-op latency histograms (ns), merged across
	// workers. OpLat[workload.RangeQuery] is populated whenever the mix
	// scans — every scan's wall-clock latency, the long-read tail metric
	// per policy; the other ops only when Config.OpLatency is set.
	// Absent ops are nil.
	OpLat [workload.NumOps]*report.Histogram
}

// build instantiates the data structure named in cfg.
func build(cfg Config, d *core.Domain) (ds.Map, error) {
	switch cfg.DS {
	case DSHarrisMichaelList:
		return hmlist.New(d), nil
	case DSLazyList:
		return lazylist.New(d), nil
	case DSHashTable:
		return hashtable.New(d, cfg.KeyRange, 6, nil), nil
	case DSExternalBST:
		return extbst.New(d), nil
	case DSABTree:
		return abtree.New(d, nil), nil
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
	g := core.NewDomainGroup(cfg.Policy, 1, cfg.Threads, &cfg.Reclaim)
	m, err := build(cfg, g.Member(0))
	if err != nil {
		return Result{}, err
	}
	if cfg.Mix.RangePct > 0 {
		if _, ok := m.(ds.RangeScanner); !ok {
			return Result{}, fmt.Errorf("harness: mix has RangePct=%d but %q does not support range queries", cfg.Mix.RangePct, cfg.DS)
		}
	}
	t := &trial{g: g, workers: cfg.Threads, duration: cfg.Duration, outstanding: m.Outstanding}
	if t.handles, err = lease(g, cfg.Threads); err != nil {
		return Result{}, err
	}
	for _, h := range t.handles {
		h.Member(0) // leased here, in worker order, so thread ids follow worker ids
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
			if err := gen.SetDist(cfg.Dist, workload.DefaultZipfS); err != nil {
				return Result{}, fmt.Errorf("harness: worker %d: %w", i, err)
			}
		}
		gens[i] = gen
	}

	// Scans are always timed when the mix scans; the other classes only
	// under OpLatency, so figure reproductions don't pay the clock reads.
	t.tallies = newTallies(cfg.Threads, workload.NumOps, func(op int) bool {
		if workload.Op(op) == workload.RangeQuery {
			return cfg.Mix.RangePct > 0
		}
		return cfg.OpLatency
	})

	// Prefill to about KeyRange/2 keys (§5.0.2), carrying encoded values
	// so execution-phase Gets verify from the start.
	prefill(t.handles, func(i int) int64 {
		return share(cfg.KeyRange/2, int64(cfg.Threads), i == 0)
	}, func(i int, h *core.GroupHandle, _ int64) func() bool {
		gen := workload.NewGenerator(cfg.Seed^0xfeed+uint64(i), workload.UpdateHeavy, cfg.KeyRange)
		th := h.Member(0)
		return func() bool {
			k := gen.Key()
			return m.PutIfAbsent(th, k, gen.Value(k))
		}
	})

	// A leg ends at stop or, in churn mode, after Churn.AfterOps
	// operations; the churned handle goes back through the group.
	t.leg = func(t *trial, id int) bool {
		runWorker(cfg, m, t.handles[id].Member(0), gens[id], id, t, &t.tallies[id])
		return cfg.Churn.Enabled() && !t.stop.Load()
	}
	c, sum, _ := t.run()

	res := Result{Config: cfg, Core: c, RangeKeys: sum.keys}
	copy(res.OpCounts[:], sum.byClass)
	copy(res.OpLat[:], sum.lats)
	res.ReadTput = float64(res.OpCounts[workload.Get]) / c.Elapsed.Seconds()
	res.RangeTput = float64(res.OpCounts[workload.RangeQuery]) / c.Elapsed.Seconds()
	return res, nil
}

// runWorker is one worker leg's execution phase. gen is the worker's
// private generator (already role-resolved, see workerRole; it rides
// the whole leg chain, so churn changes thread identity but not the op
// stream). Counters accumulate in locals and fold into c once after the
// loop (see tally). In churn mode the loop additionally ends after
// cfg.Churn.AfterOps operations so the trial can rotate the handle.
func runWorker(cfg Config, m ds.Map, th *core.Thread, gen *workload.Generator, id int, t *trial, c *tally) {
	scanner, _ := m.(ds.RangeScanner) // non-nil whenever mix.RangePct > 0
	stop := &t.stop

	staller := cfg.StallEvery > 0 && cfg.StallLength > 0 && id == 0
	nextStall := time.Now().Add(cfg.StallEvery)

	quota := cfg.Churn.AfterOps // 0 = no churn: run until stop
	var (
		ops       uint64
		byClass   [workload.NumOps]uint64
		rangeKeys uint64
		valueErrs uint64
	)
	count := func(int64, uint64) bool { rangeKeys++; return true }
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
		hist := c.lats[op]
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
			scanner.Scan(th, key, key+gen.RangeSpan()-1, count)
		}
		if hist != nil {
			hist.Record(time.Since(start).Nanoseconds())
		}
		byClass[op]++
		ops++
	}
	c.add(ops, rangeKeys, valueErrs, byClass[:])
}
