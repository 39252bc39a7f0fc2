// Store mode: one trial of the KV-serving front (internal/store) — a
// sharded string-key store × a reclamation policy × a store mix ×
// a thread count — with the same per-op-class latency-histogram
// machinery the map trials use. Where a map trial measures the paper's
// dialect (one key, one protected operation), a store trial measures
// serving shapes: single gets, batched multi-gets (one protected
// operation per shard per batch), value-returning scans, and
// variable-size payload writes, under uniform or Zipfian key
// popularity.
package harness

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/arena"
	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/report"
	"pop/internal/rng"
	"pop/internal/store"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

// StoreConfig describes one store trial.
type StoreConfig struct {
	Policy   core.Policy   // reclamation scheme
	Threads  int           // worker count
	Duration time.Duration // execution-phase length
	Keys     int64         // key population (ranks 0..Keys-1)
	Shards   int           // store shard count (power of two; default 8)
	Groups   int           // member reclamation domains (power of two, <= Shards; default 1)
	Backing  string        // per-shard structure (store.Backing*; default skl)
	Seed     uint64        // trial seed (reproducible)

	Mix workload.StoreMix // op mixture (default workload.StoreServe)

	// Dist is the key-popularity distribution (uniform, zipf or
	// latest; the skewed two at workload.DefaultZipfS). Under latest,
	// puts land on the advancing insert frontier (YCSB D's
	// read-the-records-just-inserted shape).
	Dist workload.Dist

	// Trace replaces the synthetic mix with a recorded op stream
	// (workload.ParseTrace): workers drain the trace exactly once
	// through a shared cursor, and the trial ends when it is
	// exhausted (Duration is ignored). Every distinct trace key is
	// prefilled with a verifiable value so reads hit. Trace mode is
	// incompatible with Churn; Mix/Dist are ignored.
	Trace []workload.TraceOp
	// TracePaced honours each op's Offset (open-loop replay: no op
	// fires before trace-start + Offset). Default: as fast as
	// possible.
	TracePaced bool

	// Chaos runs fault injectors (internal/chaos) alongside the
	// workload: the domain is sized with Chaos.Slots() extra thread
	// slots and StoreResult.Chaos reports what the injectors did.
	Chaos chaos.Config

	// ChaosStart/ChaosStop window the injectors to a burst inside the
	// timed phase: the injectors launch ChaosStart after the measured
	// phase begins and stop at ChaosStop (0 = run to the end of the
	// phase). Both zero (the default) runs chaos for the whole phase.
	// Burst mode is how the timeline figure shows a stalled-reader
	// spike arriving and draining mid-run. Requires Chaos.Enabled();
	// incompatible with trace replay (whose length Duration
	// doesn't bound).
	ChaosStart, ChaosStop time.Duration

	// Churn enables the elastic serving mode: each worker returns its
	// handle to the store's pool after Churn.AfterOps operations and
	// respawns as a fresh goroutine re-leasing a slot —
	// resize-under-load, measured. StoreResult.Lifecycle reports the
	// turnover.
	Churn workload.Churn

	// BatchSize is the multi-get and multi-put batch width (default 16).
	BatchSize int
	// ValueMin/ValueMax bound the (uniformly drawn) payload sizes
	// (defaults 16 and 256; the serving shape is 16–1024 B). ValueMin
	// is clamped up to workload.MinCompactLen (4), the smallest
	// verifiable payload; sizes at or below store.InlineMaxLen (7)
	// take the store's inline-value fast path.
	ValueMin, ValueMax int
	// ValueSmallPct switches the size draw from uniform over
	// [ValueMin, ValueMax] to a bimodal small-vs-large mix: that
	// percentage of puts (and prefilled values) are exactly ValueMin
	// bytes and the rest exactly ValueMax — the knob that dials the
	// inline-vs-arena ratio of a trial. 0 (the default) keeps the
	// uniform draw.
	ValueSmallPct int

	// OpLatency enables per-class latency histograms (on in sweeps).
	OpLatency bool

	// Reclaim tunes every member domain (zero fields take the paper's
	// defaults; see core.Options). Its BatchSize is Crystalline's batch,
	// not the multi-get width above.
	Reclaim core.Options

	// SampleEvery enables live telemetry (see Config.SampleEvery):
	// StoreResult.Timeline carries interval deltas of the group's
	// reclamation counters, store-level extras (gets/puts/overwrites/
	// deletes/scan pairs/stale reads), and stalled-reader episodes.
	SampleEvery time.Duration
}

func (c StoreConfig) withDefaults() (StoreConfig, error) {
	if c.Threads <= 0 {
		return c, fmt.Errorf("harness: store Threads must be positive")
	}
	if c.Keys <= 1 {
		return c, fmt.Errorf("harness: store Keys must exceed 1")
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Millisecond
	}
	if len(c.Trace) > 0 && c.Churn.Enabled() {
		return c, fmt.Errorf("harness: trace replay is incompatible with churn")
	}
	if c.ChaosStart > 0 || c.ChaosStop > 0 {
		if !c.Chaos.Enabled() {
			return c, fmt.Errorf("harness: ChaosStart/ChaosStop set but Chaos is disabled")
		}
		if len(c.Trace) > 0 {
			return c, fmt.Errorf("harness: chaos bursts are incompatible with trace replay")
		}
		if c.ChaosStop > 0 && c.ChaosStop <= c.ChaosStart {
			return c, fmt.Errorf("harness: ChaosStop %v must exceed ChaosStart %v", c.ChaosStop, c.ChaosStart)
		}
	}
	if c.Mix == (workload.StoreMix{}) {
		c.Mix = workload.StoreServe
	}
	if !c.Mix.Valid() {
		return c, fmt.Errorf("harness: store mix %+v does not sum to 100", c.Mix)
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	// Round the group count up to a power of two and cap it at the
	// (equally rounded) shard count — the store's members<=shards rule.
	n := 1
	for n < c.Groups {
		n <<= 1
	}
	c.Groups = n
	n = 1
	for n < c.Shards {
		n <<= 1
	}
	if c.Groups > n {
		c.Groups = n
	}
	if c.Backing == "" {
		c.Backing = store.BackingSkipList
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.ValueSmallPct < 0 || c.ValueSmallPct > 100 {
		return c, fmt.Errorf("harness: ValueSmallPct %d out of [0, 100]", c.ValueSmallPct)
	}
	var err error
	if c.ValueMin, c.ValueMax, err = valueBounds(c.ValueMin, c.ValueMax); err != nil {
		return c, err
	}
	if c.Seed == 0 {
		c.Seed = 0x5707e_cafe
	}
	return c, nil
}

// valueBounds resolves a config's payload-size range: ValueMin defaults
// to 16 and is clamped up to workload.MinCompactLen, the smallest
// verifiable payload; ValueMax defaults to 256, but never below an
// explicitly chosen ValueMin ({ValueMin: 512} alone means fixed 512-byte
// payloads), and may not exceed the value arena's cap.
func valueBounds(vmin, vmax int) (int, int, error) {
	if vmin <= 0 {
		vmin = 16
	}
	if vmin < workload.MinCompactLen {
		vmin = workload.MinCompactLen
	}
	if vmax <= 0 {
		vmax = max(256, vmin)
	}
	if vmax < vmin {
		return 0, 0, fmt.Errorf("harness: ValueMax %d below ValueMin %d", vmax, vmin)
	}
	if vmax > arena.MaxValueLen {
		return 0, 0, fmt.Errorf("harness: ValueMax %d exceeds the value arena's %d-byte cap", vmax, arena.MaxValueLen)
	}
	return vmin, vmax, nil
}

// StoreResult is the outcome of one store trial.
type StoreResult struct {
	Config StoreConfig

	Ops        uint64  // operations completed (a batch or scan counts once)
	Throughput float64 // Ops per second
	ServedKeys uint64  // keys served: gets + batch keys + scan pairs
	KeyTput    float64 // ServedKeys per second

	// OpCounts splits Ops by operation kind.
	OpCounts [workload.NumStoreOps]uint64

	// ValueErrors counts served values that failed the workload
	// checksum — the value-plane symptom of a reclamation bug; must be
	// zero.
	ValueErrors uint64

	PeakResident int64 // peak outstanding nodes+values+tickets
	Unreclaimed  int64 // retired-but-unfreed at measurement end
	LeakedAfter  int64 // unreclaimed after a quiescent flush

	// Allocation accounting: Go-heap allocation rate over the measured
	// phase (runtime.MemStats deltas between release and worker
	// quiescence, divided by Ops) — see Result.AllocsPerOp. Inline
	// values and pooled nodes cost zero here, so this is the sweep-level
	// witness of the hot-path memory diet.
	AllocsPerOp     float64 // heap allocations per operation
	AllocBytesPerOp float64 // heap bytes per operation

	// OpLat holds per-op latency histograms (ns), merged across
	// workers; nil unless Config.OpLatency.
	OpLat [workload.NumStoreOps]*report.Histogram

	// Store holds the store-level counters (shard-aggregated).
	// Store.StaleReads counts value reads that lost to a concurrent
	// overwrite's reclamation and retried: the read-side cost of eager
	// value reclamation, a per-policy signature.
	Store   store.Stats
	Reclaim core.Stats // reclamation counters (summed across member domains)

	// ReclaimDetail is the per-pass fan-out view (pings sent and
	// threads scanned per reclaim pass, averaged across the whole
	// group) — the quantity domain groups shrink.
	ReclaimDetail core.ReclaimStats

	// Lifecycle reports thread-slot turnover (releases, peak leases,
	// orphan donation/adoption) — the churn-mode explainability view.
	Lifecycle core.LifecycleStats

	// Chaos reports injector activity when Config.Chaos was enabled
	// (zero otherwise); storms assert these are nonzero so an idle
	// injector fails instead of silently weakening the run.
	Chaos chaos.Stats

	// Elapsed is the measured execution-phase length: Config.Duration
	// for mix runs, the actual replay time for trace runs.
	Elapsed time.Duration

	// Timeline is the live-telemetry record of the run (nil unless
	// Config.SampleEvery is set). Its extras columns are the store's
	// counters (gets, puts, overwrites, deletes, scan pairs, stale
	// reads), so value-plane behaviour lines up against reclamation
	// deltas sample by sample.
	Timeline *telemetry.Timeline
}

// storeExtras adapts the store's shard-aggregated counters to
// telemetry.ExtrasSource, so StoreResult.Timeline samples carry
// value-plane deltas next to the reclamation deltas.
type storeExtras struct{ s *store.Store }

func (e storeExtras) ExtraNames() []string {
	return []string{"store_gets", "store_puts", "store_overwrites",
		"store_deletes", "store_scan_pairs", "store_stale_reads"}
}

func (e storeExtras) ReadExtras(dst []uint64) []uint64 {
	st := e.s.Stats()
	return append(dst, st.Gets, st.Puts, st.Overwrites, st.Deletes,
		st.ScanPairs, st.StaleReads)
}

// RunStore executes one store trial.
func RunStore(cfg StoreConfig) (StoreResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return StoreResult{}, err
	}
	traceMode := len(cfg.Trace) > 0
	chaosSlots := 0
	if cfg.Chaos.Enabled() {
		chaosSlots = cfg.Chaos.Slots()
	}
	g := core.NewDomainGroup(cfg.Policy, cfg.Groups, cfg.Threads+chaosSlots, &cfg.Reclaim)
	s, err := store.New(g, store.Config{
		Shards:               cfg.Shards,
		Backing:              cfg.Backing,
		ExpectedKeysPerShard: cfg.Keys/int64(cfg.Shards) + 1,
	})
	if err != nil {
		return StoreResult{}, err
	}
	if !traceMode && cfg.Mix.ScanPct > 0 && !s.Ordered() {
		return StoreResult{}, fmt.Errorf("harness: mix has ScanPct=%d but backing %q is unordered", cfg.Mix.ScanPct, cfg.Backing)
	}
	if traceMode && !s.Ordered() {
		for i := range cfg.Trace {
			if cfg.Trace[i].Op == workload.StoreScan {
				return StoreResult{}, fmt.Errorf("harness: trace has scans but backing %q is unordered", cfg.Backing)
			}
		}
	}
	// Serving handles come from the store's group facade (the error
	// path, so capacity misconfigurations fail with a message); churn
	// legs rotate them through the same group.
	threads := make([]*core.GroupHandle, cfg.Threads)
	for i := range threads {
		h, err := s.Acquire()
		if err != nil {
			return StoreResult{}, fmt.Errorf("harness: store worker %d: %w", i, err)
		}
		threads[i] = h
	}

	keyTab, hkTab := keyTable(cfg.Keys)

	// Worker→member affinity: with more than one member domain, worker
	// id is pinned to member (id mod members) and draws keys only from
	// the ranks whose shard group that member owns. This routing is what
	// the grouped fan-out numbers measure: a member's registrant list
	// then holds only its own workers, so a reclamation pass pings
	// O(threads/groups) peers instead of every worker in the trial.
	// Scans are the exception — Store.Scan visits every shard, so one
	// scan leases the scanning worker into every member; mixes with a
	// scan share therefore report flat (ungrouped) fan-out.
	members := s.Group().Members()
	var memberRanks [][]int64
	if !traceMode && members > 1 {
		memberRanks = make([][]int64, members)
		for rank := int64(0); rank < cfg.Keys; rank++ {
			m := s.MemberIndex(s.ShardIndex(keyTab[rank]))
			memberRanks[m] = append(memberRanks[m], rank)
		}
	}
	workerRanks := func(id int) []int64 {
		if memberRanks == nil {
			return nil
		}
		if t := memberRanks[id%members]; len(t) > 1 {
			return t
		}
		return nil // degenerate split (tiny key table): this worker draws globally
	}

	// Per-worker key samplers (zipf state is per-sampler, so build them
	// up front where errors can surface). Trace replay draws no keys.
	// Affinity workers sample a dense [0, len(memberRanks)) space that
	// the hot loop maps through the rank table, preserving the skew
	// shape within the member's key subset.
	samplers := make([]*workload.Sampler, cfg.Threads)
	if !traceMode {
		for i := range samplers {
			n := cfg.Keys
			if t := workerRanks(i); t != nil {
				n = int64(len(t))
			}
			sm, err := workload.NewSampler(cfg.Seed+uint64(i)*0x9e3779b97f4a7c15+1, n, cfg.Dist, workload.DefaultZipfS)
			if err != nil {
				return StoreResult{}, fmt.Errorf("harness: worker %d: %w", i, err)
			}
			samplers[i] = sm
		}
	}

	workers := newTallies(cfg.Threads, workload.NumStoreOps, func(int) bool { return cfg.OpLatency })

	// Prefill: mix runs load half the rank population (the §5.0.2
	// shape, transplanted to the store); trace runs load every distinct
	// trace key so reads hit.
	if traceMode {
		tracePrefill(cfg, s, threads)
	} else if err := storePrefill(cfg, s, threads, keyTab, hkTab, workerRanks); err != nil {
		return StoreResult{}, err
	}

	// Fault injectors launch after the prefill so they perturb the
	// measured phase, not the load phase: for the whole phase, or — in
	// burst mode — from a timer goroutine that starts them ChaosStart in
	// and stops them at ChaosStop. Either way stopChaos returns once every
	// injector thread has flushed and released, donating its leftover
	// retires for the terminal drains to adopt.
	stopChaos := func() (chaos.Stats, error) { return chaos.Stats{}, nil }
	switch {
	case !cfg.Chaos.Enabled():
	case cfg.ChaosStart == 0 && cfg.ChaosStop == 0:
		run, err := chaos.Start(cfg.Chaos, s, keyTab)
		if err != nil {
			return StoreResult{}, err
		}
		stopChaos = func() (chaos.Stats, error) { return run.Stop(), nil }
	default:
		type outcome struct {
			stats chaos.Stats
			err   error
		}
		burst := make(chan outcome, 1)
		go func() {
			time.Sleep(cfg.ChaosStart)
			run, err := chaos.Start(cfg.Chaos, s, keyTab)
			if err != nil {
				burst <- outcome{err: fmt.Errorf("harness: chaos burst: %w", err)}
				return
			}
			stopAt := cfg.ChaosStop
			if stopAt == 0 {
				stopAt = cfg.Duration
			}
			time.Sleep(stopAt - cfg.ChaosStart)
			burst <- outcome{stats: run.Stop()}
		}()
		stopChaos = func() (chaos.Stats, error) { o := <-burst; return o.stats, o.err }
	}

	var traceHK []int64 // trace[i].Key prehashed (checksum verification)
	var cursor atomic.Int64
	if traceMode {
		traceHK = make([]int64, len(cfg.Trace))
		for i := range cfg.Trace {
			traceHK[i] = store.KeyHash(cfg.Trace[i].Key)
		}
	}

	res := StoreResult{Config: cfg}
	t := &trial{
		workers:  cfg.Threads,
		duration: cfg.Duration,
		leg: func(t *trial, id int) bool {
			if traceMode {
				runStoreTraceWorker(cfg, s, threads[id], id, t, traceHK, &cursor, &workers[id])
				return false
			}
			runStoreWorker(cfg, s, threads[id], samplers[id], id, keyTab, hkTab, workerRanks(id), t, &workers[id])
			return cfg.Churn.Enabled() && !t.stop.Load()
		},
		// A churned leg returns its handle to the store's group (donating
		// its unreclaimed retires member by member) and re-leases a slot.
		rotate: func(id int) {
			s.Release(threads[id])
			h, err := s.Acquire()
			if err != nil {
				panic(fmt.Sprintf("harness: store churn re-lease: %v", err))
			}
			threads[id] = h
		},
		// Drain, not Flush: churned predecessors may have donated orphans
		// to members this terminal leg never touched.
		drain: func(id int) { threads[id].Drain() },
		settle: func() (err error) {
			res.Chaos, err = stopChaos()
			res.Unreclaimed = g.Unreclaimed()
			res.ReclaimDetail = g.ReclaimStats()
			return err
		},
		outstanding: s.Outstanding,
		source:      g,
		extras:      storeExtras{s},
		sampleEvery: cfg.SampleEvery,
	}
	if traceMode {
		// The trace drains exactly once; the trial is over when the last
		// op completes, however long that takes.
		t.duration = 0
	}
	ph, err := t.run()
	if err != nil {
		return StoreResult{}, err
	}

	sum := sumTallies(workers)
	res.Ops, res.ServedKeys, res.ValueErrors = sum.ops, sum.keys, sum.valueErrs
	copy(res.OpCounts[:], sum.byClass)
	copy(res.OpLat[:], sum.lats)
	res.PeakResident = ph.peak
	res.LeakedAfter = g.Unreclaimed()
	res.Store = s.Stats()
	res.Reclaim = g.Stats()
	res.Lifecycle = g.Lifecycle()
	res.Elapsed = ph.elapsed
	res.Timeline = ph.timeline
	res.AllocsPerOp, res.AllocBytesPerOp = ph.perOp(res.Ops)
	res.Throughput = float64(res.Ops) / ph.elapsed.Seconds()
	res.KeyTput = float64(res.ServedKeys) / ph.elapsed.Seconds()
	return res, nil
}

// keyTable builds rank -> string key and its store hash (for value
// checksums). Built once per trial; the hot loops only index it.
func keyTable(keys int64) (keyTab []string, hkTab []int64) {
	keyTab = make([]string, keys)
	hkTab = make([]int64, keys)
	for i := range keyTab {
		keyTab[i] = workload.KeyString(int64(i))
		hkTab[i] = store.KeyHash(keyTab[i])
	}
	return keyTab, hkTab
}

// scanSpan is the expected number of pairs per synthetic scan (a trace
// scan may give its own).
const scanSpan = 32

// scanWidth returns the hashed-key window width whose expected pair
// count (keys uniform over the hash space, half the population live) is
// about span. A span beyond the live population saturates at the whole
// space.
func scanWidth(keys int64, span int) uint64 {
	live := uint64(keys) / 2
	if live == 0 {
		live = 1
	}
	over, w := bits.Mul64(^uint64(0)/live, uint64(span))
	if over != 0 {
		return ^uint64(0)
	}
	if w == 0 {
		w = 1
	}
	return w
}

// drawValueSize draws one put payload size from cfg's distribution
// using r: uniform over [ValueMin, ValueMax] by default, or the
// ValueSmallPct bimodal small-vs-large mix. The uniform branch consumes
// the random stream exactly as it did before the knob existed, so
// ValueSmallPct=0 trials reproduce old draws bit for bit.
func drawValueSize(cfg StoreConfig, r *rng.State) int {
	if cfg.ValueSmallPct > 0 {
		if int(r.Intn(100)) < cfg.ValueSmallPct {
			return cfg.ValueMin
		}
		return cfg.ValueMax
	}
	return cfg.ValueMin + int(r.Intn(int64(cfg.ValueMax-cfg.ValueMin+1)))
}

// storeExec issues single store operations for one worker leg — the
// part the mix-driven and the trace-driven loops share: every served
// value is checksum-verified, and served keys and failures are tallied
// here and folded into the worker's tally when the leg ends.
type storeExec struct {
	s          *store.Store
	h          *core.GroupHandle
	gbuf, vbuf []byte
	served     uint64
	valueErrs  uint64
}

func (x *storeExec) get(key string, hk int64) {
	var ok bool
	x.gbuf, ok = x.s.Get(x.h, key, x.gbuf)
	if ok {
		x.served++
		if !workload.ValueBytesValid(hk, x.gbuf) {
			x.valueErrs++
		}
	}
}

func (x *storeExec) put(key string, hk int64, tag uint32, size int) {
	x.vbuf = workload.AppendValueBytes(x.vbuf[:0], hk, tag, size)
	x.s.Put(x.h, key, x.vbuf)
}

// scan covers the hashed-key window [lo, lo+width], clamped at the
// sentinel-free top.
func (x *storeExec) scan(lo int64, width uint64) {
	hi := lo + int64(width)
	if hi < lo {
		hi = 1<<63 - 2
	}
	x.served += uint64(x.s.Scan(x.h, lo, hi, func(hk int64, v []byte) bool {
		if !workload.ValueBytesValid(hk, v) {
			x.valueErrs++
		}
		return true
	}))
}

// foldInto adds the leg's served keys and failures to the worker's tally.
func (x *storeExec) foldInto(c *tally) {
	c.keys += x.served
	c.valueErrs += x.valueErrs
}

// runStoreWorker is one worker's execution phase. rankTab, when
// non-nil, maps the sampler's dense rank space onto the worker's
// member-owned ranks (worker→member affinity).
func runStoreWorker(cfg StoreConfig, s *store.Store, h *core.GroupHandle, keys *workload.Sampler,
	id int, keyTab []string, hkTab []int64, rankTab []int64, t *trial, c *tally) {
	stop := &t.stop
	live := t.livePub(id)
	// The incarnation term keeps churn legs from replaying one leg's op
	// sequence: each lease of the slot draws a distinct stream.
	r := rng.New(cfg.Seed ^ (uint64(id)*0xff51afd7ed558ccd + 7) ^ (h.Incarnation() * 0x9e3779b97f4a7c15))
	pick := func(rank int64) int64 {
		if rankTab != nil {
			return rankTab[rank]
		}
		return rank
	}
	var (
		x     = storeExec{s: s, h: h}
		batch store.Batch
		kb    = make([]string, cfg.BatchSize)
		ranks = make([]int64, cfg.BatchSize)
		pvals [][]byte // StoreMPut payloads (lazily sized)
		tag   = uint32(id)<<24 ^ uint32(h.Incarnation())<<12
	)
	width := scanWidth(cfg.Keys, scanSpan)
	quota := cfg.Churn.AfterOps // 0 = no churn: run until stop
	var (
		ops     uint64
		byClass [workload.NumStoreOps]uint64
	)
	for !stop.Load() && (quota == 0 || ops < quota) {
		op := cfg.Mix.NextStore(r)
		hist := c.lats[op]
		var start time.Time
		if hist != nil {
			start = time.Now()
		}
		switch op {
		case workload.StoreGet:
			rank := pick(keys.Next())
			x.get(keyTab[rank], hkTab[rank])
		case workload.StorePut:
			// NextInsert == Next for uniform/zipf; under latest it
			// advances the insert frontier the reads chase.
			rank := pick(keys.NextInsert())
			tag++
			x.put(keyTab[rank], hkTab[rank], tag, drawValueSize(cfg, r))
		case workload.StoreMGet:
			for i := range kb {
				ranks[i] = pick(keys.Next())
				kb[i] = keyTab[ranks[i]]
			}
			s.GetBatch(h, kb, &batch)
			for i := range kb {
				if batch.OK[i] {
					x.served++
					if !workload.ValueBytesValid(hkTab[ranks[i]], batch.Vals[i]) {
						x.valueErrs++
					}
				}
			}
		case workload.StoreScan:
			x.scan(int64(r.Uint64()), width) // uniform over the hashed-key space
		case workload.StoreRMW:
			// Read-modify-write (YCSB F): read the key, then put a
			// fresh payload back — two protected ops, like a cache's
			// read-update cycle.
			rank := pick(keys.Next())
			x.get(keyTab[rank], hkTab[rank])
			tag++
			x.put(keyTab[rank], hkTab[rank], tag, drawValueSize(cfg, r))
		case workload.StoreMPut:
			// Batched upsert: one protected op per shard group and one
			// arena publish sequence per group instead of per key.
			if pvals == nil {
				pvals = make([][]byte, cfg.BatchSize)
			}
			for i := range kb {
				ranks[i] = pick(keys.NextInsert())
				kb[i] = keyTab[ranks[i]]
				tag++
				size := drawValueSize(cfg, r)
				pvals[i] = workload.AppendValueBytes(pvals[i][:0], hkTab[ranks[i]], tag, size)
			}
			s.PutBatch(h, kb, pvals, &batch)
		default: // workload.StoreDelete
			s.Delete(h, keyTab[pick(keys.Next())])
		}
		if hist != nil {
			hist.Record(time.Since(start).Nanoseconds())
		}
		byClass[op]++
		ops++
		live.tick(ops)
	}
	live.flush(ops)
	// Accumulate across churn legs.
	c.ops += ops
	x.foldInto(c)
	for i := range byClass {
		c.byClass[i] += byClass[i]
	}
}

// runStoreTraceWorker replays trace ops pulled from the shared cursor
// until the trace is exhausted. Every derived quantity (put sizes,
// value tags, scan windows) is a pure function of the op's trace
// index, so two same-config replays execute identical work regardless
// of how ops land on workers.
func runStoreTraceWorker(cfg StoreConfig, s *store.Store, h *core.GroupHandle,
	id int, t *trial, traceHK []int64, cursor *atomic.Int64, c *tally) {
	x := storeExec{s: s, h: h}
	width := scanWidth(cfg.Keys, scanSpan)
	start := t.start
	live := t.livePub(id)
	for {
		i := cursor.Add(1) - 1
		if i >= int64(len(cfg.Trace)) {
			live.flush(c.ops)
			x.foldInto(c)
			return
		}
		op := cfg.Trace[i]
		hk := traceHK[i]
		if cfg.TracePaced {
			if wait := time.Until(start.Add(op.Offset)); wait > 0 {
				time.Sleep(wait)
			}
		}
		hist := c.lats[op.Op]
		var t0 time.Time
		if hist != nil {
			t0 = time.Now()
		}
		switch op.Op {
		case workload.StoreGet:
			x.get(op.Key, hk)
		case workload.StorePut:
			x.put(op.Key, hk, traceTag(i), traceSize(cfg, op, i))
		case workload.StoreScan:
			w := width
			if op.Size > 0 {
				w = scanWidth(cfg.Keys, op.Size)
			}
			x.scan(hk, w)
		case workload.StoreRMW:
			x.get(op.Key, hk)
			x.put(op.Key, hk, traceTag(i), traceSize(cfg, op, i))
		default: // workload.StoreDelete
			s.Delete(h, op.Key)
		}
		if hist != nil {
			hist.Record(time.Since(t0).Nanoseconds())
		}
		c.byClass[op.Op]++
		c.ops++
		live.tick(c.ops)
	}
}

// traceTag derives a write tag from a trace index: distinct per op,
// identical across replays.
func traceTag(i int64) uint32 { return uint32(i)*2654435761 + 1 }

// traceSize resolves a trace put's payload size: the recorded size,
// clamped to the arena's bounds, or an index-derived draw from the
// configured range when the trace does not say.
func traceSize(cfg StoreConfig, op workload.TraceOp, i int64) int {
	if op.Size > 0 {
		size := op.Size
		if size < workload.MinCompactLen {
			size = workload.MinCompactLen
		}
		if size > cfg.ValueMax {
			size = cfg.ValueMax
		}
		return size
	}
	span := int64(cfg.ValueMax - cfg.ValueMin + 1)
	return cfg.ValueMin + int((uint64(i)*0x9e3779b97f4a7c15>>33)%uint64(span))
}

// tracePrefill loads every distinct trace key with a verifiable value,
// split across threads, so replayed reads hit like they did against
// the traced system.
func tracePrefill(cfg StoreConfig, s *store.Store, handles []*core.GroupHandle) {
	keys := workload.TraceKeys(cfg.Trace)
	var wg sync.WaitGroup
	per := (len(keys) + len(handles) - 1) / len(handles)
	for i, h := range handles {
		lo := i * per
		if lo >= len(keys) {
			break
		}
		hi := lo + per
		if hi > len(keys) {
			hi = len(keys)
		}
		wg.Add(1)
		go func(h *core.GroupHandle, chunk []string, base int) {
			defer wg.Done()
			var vbuf []byte
			for j, k := range chunk {
				hk := store.KeyHash(k)
				vbuf = workload.AppendValueBytes(vbuf[:0], hk, uint32(base+j)|0x01000000, cfg.ValueMin)
				s.Put(h, k, vbuf)
			}
		}(h, keys[lo:hi], lo)
	}
	wg.Wait()
}

// storePrefill inserts ranks until the store holds about Keys/2
// entries, split across all threads on their own goroutines.
func storePrefill(cfg StoreConfig, s *store.Store, handles []*core.GroupHandle, keyTab []string, hkTab []int64, workerRanks func(int) []int64) error {
	members := s.Group().Members()
	var wg sync.WaitGroup
	for i, h := range handles {
		// Affinity handles prefill only ranks their own member owns, so
		// the load phase doesn't lease every handle into every member
		// before the measured phase starts. Each member's half-full
		// target is split among the handles pinned to it.
		tab := workerRanks(i)
		pop := cfg.Keys
		peers := int64(len(handles))
		first := i == 0
		if tab != nil {
			pop = int64(len(tab))
			peers = int64((len(handles)-1-i%members)/members + 1)
			first = i < members
		}
		target := pop / 2
		quota := target / peers
		if first {
			quota += target - quota*peers
		}
		wg.Add(1)
		go func(id int, h *core.GroupHandle, tab []int64, pop, quota int64) {
			defer wg.Done()
			r := rng.New(cfg.Seed ^ 0xfeed ^ uint64(id))
			var vbuf []byte
			done, attempts := int64(0), int64(0)
			tag := uint32(id)<<24 | 0x800000
			for done < quota {
				rank := r.Intn(pop)
				if tab != nil {
					rank = tab[rank]
				}
				size := drawValueSize(cfg, r)
				tag++
				vbuf = workload.AppendValueBytes(vbuf[:0], hkTab[rank], tag, size)
				if s.PutIfAbsent(h, keyTab[rank], vbuf) {
					done++
				}
				attempts++
				if attempts > 50*quota+1000 {
					return // saturated; good enough for a prefill
				}
			}
		}(i, h, tab, pop, quota)
	}
	wg.Wait()
	return nil
}
