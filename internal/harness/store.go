// Store mode: one trial of the KV-serving front (internal/store) — a
// sharded string-key store × a reclamation policy × a store mix ×
// a thread count — with the same per-op-class latency-histogram
// machinery the map trials use. Where a map trial measures the paper's
// dialect (one key, one protected operation), a store trial measures
// serving shapes: single gets, batched multi-gets (one protected
// operation per member domain per batch), value-returning scans, and
// variable-size payload writes, under uniform or Zipfian key
// popularity.
package harness

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"pop/internal/arena"
	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/report"
	"pop/internal/rng"
	"pop/internal/store"
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

	// SampleEvery enables live telemetry: an interval sampler snapshots
	// the group's counters every SampleEvery, and StoreResult.Timeline
	// carries the per-window deltas of the reclamation counters and of
	// the store's own (gets/puts/overwrites/deletes/scan pairs/stale
	// reads), so value-plane behaviour lines up against reclamation
	// sample by sample, plus stalled-reader episodes. Zero (the default)
	// disables sampling and with it its one per-op cost, the workers'
	// op-count publish.
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
	// The store's layout rule caps the group count; the shard count
	// itself stays as given (store.New rounds it).
	var err error
	if _, c.Groups, err = store.Layout(c.Shards, c.Groups); err != nil {
		return c, err
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.ValueSmallPct < 0 || c.ValueSmallPct > 100 {
		return c, fmt.Errorf("harness: ValueSmallPct %d out of [0, 100]", c.ValueSmallPct)
	}
	if c.ValueMin, c.ValueMax, err = valueBounds(c.ValueMin, c.ValueMax); err != nil {
		return c, err
	}
	if c.Seed == 0 {
		c.Seed = 0x5707e_cafe
	}
	return c, nil
}

// Ordered reports whether the trial's store is ordered: true when the
// workload scans (the trace holds a scan, or the mix has a scan share;
// a zero Mix is workload.StoreServe, which scans), so the store builds
// the (a,b)-tree, and false otherwise, so it builds the hash table.
func (c StoreConfig) Ordered() bool {
	if len(c.Trace) > 0 {
		for i := range c.Trace {
			if c.Trace[i].Op == workload.StoreScan {
				return true
			}
		}
		return false
	}
	return c.Mix.ScanPct > 0 || c.Mix == (workload.StoreMix{})
}

// Structure is the DS name of the per-shard structure the trial's
// store builds: DSABTree when Ordered, DSHashTable otherwise.
func (c StoreConfig) Structure() string {
	if c.Ordered() {
		return DSABTree
	}
	return DSHashTable
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

// StoreResult is the outcome of one store trial: the shared Core (an
// op is one get, put, batch or scan; PeakResident counts nodes and
// values) plus the store's own view.
type StoreResult struct {
	Core

	ServedKeys uint64 // keys served: gets + batch keys + scan pairs

	// OpCounts splits Ops by operation kind.
	OpCounts [workload.NumStoreOps]uint64

	// OpLat holds per-op latency histograms (ns), merged across
	// workers; nil unless Config.OpLatency.
	OpLat [workload.NumStoreOps]*report.Histogram

	// Store holds the store-level counters (shard-aggregated).
	// Store.StaleReads counts value reads that lost to a concurrent
	// overwrite's reclamation and retried: the read-side cost of eager
	// value reclamation, a per-policy signature.
	Store store.Stats

	// Chaos reports injector activity when Config.Chaos was enabled
	// (zero otherwise); storms assert these are nonzero so an idle
	// injector fails instead of silently weakening the run.
	Chaos chaos.Stats
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
		Ordered:              cfg.Ordered(),
		ExpectedKeysPerShard: (cfg.Keys + int64(cfg.Shards) - 1) / int64(cfg.Shards),
	})
	if err != nil {
		return StoreResult{}, err
	}
	t := &trial{
		g: g, workers: cfg.Threads, duration: cfg.Duration,
		outstanding: s.Outstanding, sampleEvery: cfg.SampleEvery, extras: storeExtras{s},
	}
	if t.handles, err = lease(g, cfg.Threads); err != nil {
		return StoreResult{}, err
	}

	// Worker→member affinity: with more than one member domain, worker
	// id is pinned to member (id mod members) and draws keys only from
	// the ranks whose shard group that member owns. This routing is what
	// the grouped fan-out numbers measure: a member's registrant list
	// then holds only its own workers, so a reclamation pass pings
	// O(threads/groups) peers instead of every worker in the trial.
	// Scans are the exception — Store.Scan visits every shard, so one
	// scan leases the scanning worker into every member; mixes with a
	// scan share therefore report flat (ungrouped) fan-out.
	members := g.Members()
	var memberRanks [][]int64
	if !traceMode && members > 1 {
		memberRanks = make([][]int64, members)
		var kb [workload.KeyLen]byte
		for rank := int64(0); rank < cfg.Keys; rank++ {
			m := s.MemberIndex(s.ShardIndex(workload.PutKey(&kb, rank)))
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
		return nil // degenerate split (tiny key population): this worker draws globally
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

	t.tallies = newTallies(cfg.Threads, workload.NumStoreOps, func(int) bool { return cfg.OpLatency })

	if traceMode {
		// Every distinct trace key, with a verifiable value, so replayed
		// reads hit like they did against the traced system.
		keys := workload.TraceKeys(cfg.Trace)
		prefill(t.handles, func(i int) int64 {
			return share(int64(len(keys)), int64(cfg.Threads), i == 0)
		}, func(_ int, h *core.GroupHandle, j int64) func() bool {
			var vbuf []byte
			return func() bool {
				k := keys[j]
				vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(k), uint32(j)|0x01000000, cfg.ValueMin)
				s.Put(h, k, vbuf)
				j++
				return true
			}
		})
	} else {
		// Half the rank population (the §5.0.2 shape, transplanted to the
		// store). Affinity handles prefill only ranks their own member
		// owns, so the load phase doesn't lease every handle into every
		// member before the measured phase starts: each member's
		// half-full target is split among the handles pinned to it.
		prefill(t.handles, func(i int) int64 {
			if tab := workerRanks(i); tab != nil {
				peers := (cfg.Threads-1-i%members)/members + 1
				return share(int64(len(tab))/2, int64(peers), i < members)
			}
			return share(cfg.Keys/2, int64(cfg.Threads), i == 0)
		}, func(i int, h *core.GroupHandle, _ int64) func() bool {
			tab := workerRanks(i)
			pop := cfg.Keys
			if tab != nil {
				pop = int64(len(tab))
			}
			r := rng.New(cfg.Seed ^ 0xfeed ^ uint64(i))
			var (
				kb   [workload.KeyLen]byte
				vbuf []byte
			)
			tag := uint32(i)<<24 | 0x800000
			return func() bool {
				rank := r.Intn(pop)
				if tab != nil {
					rank = tab[rank]
				}
				size := drawValueSize(cfg, r)
				tag++
				key := workload.PutKey(&kb, rank)
				vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(key), tag, size)
				return s.PutIfAbsent(h, key, vbuf)
			}
		})
	}

	// Fault injectors launch after the prefill so they perturb the
	// measured phase, not the load phase: ChaosStart into the phase, from
	// a goroutine that stops them at ChaosStop or when the phase ends
	// (settle), whichever is first. Whole-run chaos is the window [0, end
	// of phase]. The stop returns once every injector thread has flushed
	// and released, donating its leftover retires for the terminal
	// drains to adopt.
	var chaosStats chaos.Stats
	if cfg.Chaos.Enabled() {
		phaseEnd := make(chan struct{})
		burst := make(chan error, 1)
		go func() {
			select {
			case <-time.After(cfg.ChaosStart):
			case <-phaseEnd:
				burst <- nil
				return
			}
			run, err := chaos.Start(cfg.Chaos, s, cfg.Keys)
			if err != nil {
				burst <- fmt.Errorf("harness: chaos: %w", err)
				return
			}
			var stopAt <-chan time.Time // nil: only the phase's end stops them
			if cfg.ChaosStop > 0 {
				stopAt = time.After(cfg.ChaosStop - cfg.ChaosStart)
			}
			select {
			case <-stopAt:
			case <-phaseEnd:
			}
			chaosStats = run.Stop()
			burst <- nil
		}()
		t.settle = func() error { close(phaseEnd); return <-burst }
	}

	var traceHK []int64 // trace[i].Key prehashed (checksum verification)
	var cursor atomic.Int64
	if traceMode {
		traceHK = make([]int64, len(cfg.Trace))
		for i := range cfg.Trace {
			traceHK[i] = store.KeyHash(cfg.Trace[i].Key)
		}
		// The trace drains exactly once; the trial is over when the last
		// op completes, however long that takes.
		t.duration = 0
	}
	t.leg = func(t *trial, id int) bool {
		if traceMode {
			runStoreTraceWorker(cfg, s, t.handles[id], id, t, traceHK, &cursor, &t.tallies[id])
			return false
		}
		runStoreWorker(cfg, s, t.handles[id], samplers[id], id, workerRanks(id), t, &t.tallies[id])
		return cfg.Churn.Enabled() && !t.stop.Load()
	}
	c, sum, err := t.run()
	if err != nil {
		return StoreResult{}, err
	}
	res := StoreResult{Core: c, ServedKeys: sum.keys, Store: s.Stats(), Chaos: chaosStats}
	copy(res.OpCounts[:], sum.byClass)
	copy(res.OpLat[:], sum.lats)
	return res, nil
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
// value is checksum-verified, and served keys and failures are counted
// here and folded into the worker's tally when the leg ends.
type storeExec struct {
	s          *store.Store
	h          *core.GroupHandle
	gbuf, vbuf []byte
	served     uint64
	valueErrs  uint64
}

// get serves key into x.gbuf and reports a hit, which the caller
// verifies with the key's hash (so a miss never hashes the key twice).
func (x *storeExec) get(key string) bool {
	var ok bool
	x.gbuf, ok = x.s.Get(x.h, key, x.gbuf)
	if ok {
		x.served++
	}
	return ok
}

// verify counts v as a failure unless it is a payload written for the
// key whose store hash is hk.
func (x *storeExec) verify(hk int64, v []byte) {
	if !workload.ValueBytesValid(hk, v) {
		x.valueErrs++
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
		x.verify(hk, v)
		return true
	}))
}

// runStoreWorker is one worker's execution phase. rankTab, when
// non-nil, maps the sampler's dense rank space onto the worker's
// member-owned ranks (worker→member affinity). Each op formats its
// keys from the drawn ranks into the worker's own buffers
// (workload.PutKey); a value's checksum identity is store.KeyHash(key).
func runStoreWorker(cfg StoreConfig, s *store.Store, h *core.GroupHandle, keys *workload.Sampler,
	id int, rankTab []int64, t *trial, c *tally) {
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
		kbuf  [workload.KeyLen]byte                          // single-key ops
		kbufs = make([][workload.KeyLen]byte, cfg.BatchSize) // one per batch key
		kb    = make([]string, cfg.BatchSize)                // views of kbufs
		pvals [][]byte                                       // StoreMPut payloads (lazily sized)
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
			if key := workload.PutKey(&kbuf, pick(keys.Next())); x.get(key) {
				x.verify(store.KeyHash(key), x.gbuf)
			}
		case workload.StorePut:
			// NextInsert == Next for uniform/zipf; under latest it
			// advances the insert frontier the reads chase.
			key := workload.PutKey(&kbuf, pick(keys.NextInsert()))
			tag++
			x.put(key, store.KeyHash(key), tag, drawValueSize(cfg, r))
		case workload.StoreMGet:
			for i := range kb {
				kb[i] = workload.PutKey(&kbufs[i], pick(keys.Next()))
			}
			s.GetBatch(h, kb, &batch)
			for i := range kb {
				if batch.OK[i] {
					x.served++
					x.verify(store.KeyHash(kb[i]), batch.Vals[i])
				}
			}
		case workload.StoreScan:
			x.scan(int64(r.Uint64()), width) // uniform over the hashed-key space
		case workload.StoreRMW:
			// Read-modify-write (YCSB F): read the key, then put a
			// fresh payload back — two protected ops, like a cache's
			// read-update cycle.
			key := workload.PutKey(&kbuf, pick(keys.Next()))
			hk := store.KeyHash(key)
			if x.get(key) {
				x.verify(hk, x.gbuf)
			}
			tag++
			x.put(key, hk, tag, drawValueSize(cfg, r))
		case workload.StoreMPut:
			// Batched upsert: one protected op per member domain, each
			// payload encoded before its member's op opens.
			if pvals == nil {
				pvals = make([][]byte, cfg.BatchSize)
			}
			for i := range kb {
				kb[i] = workload.PutKey(&kbufs[i], pick(keys.NextInsert()))
				tag++
				size := drawValueSize(cfg, r)
				pvals[i] = workload.AppendValueBytes(pvals[i][:0], store.KeyHash(kb[i]), tag, size)
			}
			s.PutBatch(h, kb, pvals, &batch)
		default: // workload.StoreDelete
			s.Delete(h, workload.PutKey(&kbuf, pick(keys.Next())))
		}
		if hist != nil {
			hist.Record(time.Since(start).Nanoseconds())
		}
		byClass[op]++
		ops++
		live.tick(ops)
	}
	live.flush(ops)
	c.add(ops, x.served, x.valueErrs, byClass[:])
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
	var (
		ops     uint64
		byClass [workload.NumStoreOps]uint64
	)
	for {
		i := cursor.Add(1) - 1
		if i >= int64(len(cfg.Trace)) {
			live.flush(ops)
			c.add(ops, x.served, x.valueErrs, byClass[:])
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
			if x.get(op.Key) {
				x.verify(hk, x.gbuf)
			}
		case workload.StorePut:
			x.put(op.Key, hk, traceTag(i), traceSize(cfg, op, i))
		case workload.StoreScan:
			w := width
			if op.Size > 0 {
				w = scanWidth(cfg.Keys, op.Size)
			}
			x.scan(hk, w)
		case workload.StoreRMW:
			if x.get(op.Key) {
				x.verify(hk, x.gbuf)
			}
			x.put(op.Key, hk, traceTag(i), traceSize(cfg, op, i))
		default: // workload.StoreDelete
			s.Delete(h, op.Key)
		}
		if hist != nil {
			hist.Record(time.Since(t0).Nanoseconds())
		}
		byClass[op.Op]++
		ops++
		live.tick(ops)
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
