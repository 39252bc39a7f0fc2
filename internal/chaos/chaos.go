// Package chaos is the reusable adversarial harness: composable fault
// injectors that run alongside a store workload, plus the shared
// Invariants checker the storm tests assert against.
//
// The injectors generalize the paper's §5.1.2 long-running-reads
// scenario into a catalogue of schedules that reclamation must survive:
//
//   - StalledReader: threads that hold a protected operation across
//     many reclamation windows (answering pings the whole time), the
//     schedule that separates robust policies from epoch-style ones;
//   - GCPressure: forced Go GC cycles plus allocation ballast, so
//     reclamation races the runtime's own stop-the-world machinery;
//   - thread churn: injectors that lease and release group slots in a
//     tight loop through the store's domain group, driving the orphan
//     donation/adoption paths of the slot lifecycle in every member
//     domain the departing tenant had touched;
//   - HotspotFlip: a writer that concentrates overwrites on one
//     shard's keys and flips shards on a timer, moving retirement
//     pressure around the store.
//
// Every injector write is checksum-valid (workload.AppendValueBytes),
// so a run under chaos remains fully value-verifiable: chaos perturbs
// schedules, never the correctness contract.
//
// Invariants is the other half: the checks the one-off storm tests of
// PRs 4–6 each re-implemented, extracted into one checker with one
// name per invariant. Each check has a seeded-violation test in this
// package proving it detects the fault it claims to (a checker that
// cannot fail is worse than none).
package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/core"
	"pop/internal/rng"
	"pop/internal/store"
	"pop/internal/workload"
)

// Config selects which injectors run and how hard. The zero value
// runs nothing; Default returns the standard bundle.
type Config struct {
	// Stalls is the number of stalled-reader injectors. Each holds a
	// protected op for StallHold (default 2ms) at a time, polling so
	// ping-based policies get their answers, then releases and
	// re-enters — a rolling population of long reads.
	Stalls    int
	StallHold time.Duration

	// GCPressure runs a forced-GC loop: one runtime.GC plus an
	// allocation ballast every GCEvery (default 5ms).
	GCPressure bool
	GCEvery    time.Duration

	// Churners is the number of lease-churn injectors; each acquires a
	// thread slot from the store's pool, performs ChurnOps ops
	// (default 200), and releases — oscillating the live thread count
	// and exercising orphan donation/adoption continuously.
	Churners int
	ChurnOps int

	// Hotspot runs the shard-hotspot flipper: overwrites concentrate
	// on one shard's keys and the target shard flips every FlipEvery
	// (default 2ms).
	Hotspot   bool
	FlipEvery time.Duration

	// Seed makes injector op streams reproducible (0 = fixed default).
	Seed uint64
}

// Default returns the standard chaos bundle: one of each injector.
func Default() Config {
	return Config{Stalls: 1, GCPressure: true, Churners: 1, Hotspot: true}
}

// Enabled reports whether any injector is configured.
func (c Config) Enabled() bool {
	return c.Stalls > 0 || c.GCPressure || c.Churners > 0 || c.Hotspot
}

// Slots returns how many extra domain thread slots the injectors
// occupy at peak; harnesses add this to their worker count when sizing
// the domain.
func (c Config) Slots() int {
	n := c.Stalls + c.Churners
	if c.Hotspot {
		n++
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.StallHold <= 0 {
		c.StallHold = 2 * time.Millisecond
	}
	if c.GCEvery <= 0 {
		c.GCEvery = 5 * time.Millisecond
	}
	if c.ChurnOps <= 0 {
		c.ChurnOps = 200
	}
	if c.FlipEvery <= 0 {
		c.FlipEvery = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0xc4a05_5eed
	}
	return c
}

// Stats counts what the injectors actually did — storms assert these
// are nonzero, so a silently idle injector fails the test rather than
// weakening it.
type Stats struct {
	Stalls   uint64 // completed stall windows
	GCCycles uint64 // forced GC cycles
	Leases   uint64 // churner lease/release cycles
	Flips    uint64 // hotspot shard flips
	Ops      uint64 // store ops issued by injectors
}

// Runner drives a set of injectors against a store until Stop.
type Runner struct {
	cfg  Config
	s    *store.Store
	keys int64 // key population: ranks [0, keys)

	stop atomic.Bool
	wg   sync.WaitGroup

	stalls, gcCycles, leases, flips, ops atomic.Uint64
}

// Start launches the configured injectors against s. keys is the size
// of the key population injectors draw from: ranks [0, keys), each
// rank's key workload.KeyString(rank), as the trial harness names them.
// Stalled readers and the hotspot flipper lease their group handles
// from the store's domain group up front — size the group with
// cfg.Slots() spare slots — and churners cycle leases for the run's
// whole length.
func Start(cfg Config, s *store.Store, keys int64) (*Runner, error) {
	cfg = cfg.withDefaults()
	if keys <= 0 && cfg.Enabled() {
		return nil, fmt.Errorf("chaos: empty key population")
	}
	r := &Runner{cfg: cfg, s: s, keys: keys}

	// Lease every long-lived injector handle before spawning anything,
	// so capacity misconfiguration fails here — with all partial leases
	// returned — rather than mid-run with goroutines already holding
	// handles.
	var held []*core.GroupHandle
	lease := func() (*core.GroupHandle, error) {
		h, err := s.Acquire()
		if err != nil {
			for _, hh := range held {
				s.Release(hh)
			}
			return nil, fmt.Errorf("chaos: injector lease: %w", err)
		}
		held = append(held, h)
		return h, nil
	}
	stallHs := make([]*core.GroupHandle, cfg.Stalls)
	for i := range stallHs {
		h, err := lease()
		if err != nil {
			return nil, err
		}
		stallHs[i] = h
	}
	var hotH *core.GroupHandle
	if cfg.Hotspot {
		h, err := lease()
		if err != nil {
			return nil, err
		}
		hotH = h
	}

	for i, h := range stallHs {
		r.wg.Add(1)
		go r.stalledReader(h, cfg.Seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	if hotH != nil {
		r.wg.Add(1)
		go r.hotspotFlipper(hotH, cfg.Seed^0xf11b)
	}
	for i := 0; i < cfg.Churners; i++ {
		r.wg.Add(1)
		go r.churner(cfg.Seed ^ (uint64(i+1) * 0xff51afd7ed558ccd))
	}
	if cfg.GCPressure {
		r.wg.Add(1)
		go r.gcLoop()
	}
	return r, nil
}

// Stop halts every injector, waits for them to flush and release their
// handles, and returns what they did. After Stop the injectors hold no
// slots and have donated or reclaimed all their retires, so lifecycle
// and drain invariants can be checked against worker state alone.
func (r *Runner) Stop() Stats {
	r.stop.Store(true)
	r.wg.Wait()
	return Stats{
		Stalls:   r.stalls.Load(),
		GCCycles: r.gcCycles.Load(),
		Leases:   r.leases.Load(),
		Flips:    r.flips.Load(),
		Ops:      r.ops.Load(),
	}
}

// stalledReader holds a protected operation for StallHold at a time,
// polling throughout so ping-based policies (POP, NBR) get their
// answers while the reservation pins memory — the §5.1.2 schedule as a
// rolling background condition. On a grouped store the stall pins the
// member domain of the key it just read (the member whose shard the
// key hashes to), so reclamation stalls stay member-local exactly as a
// real long read would.
func (r *Runner) stalledReader(h *core.GroupHandle, seed uint64) {
	defer r.wg.Done()
	rg := rng.New(seed)
	var (
		kb  [workload.KeyLen]byte
		buf []byte
	)
	for !r.stop.Load() {
		// A real read between stalls keeps the injector's reservation
		// pattern honest.
		key := workload.PutKey(&kb, rg.Intn(r.keys))
		if v, ok := r.s.Get(h, key, buf); ok {
			buf = v
		}
		r.ops.Add(1)
		th := h.Member(r.s.MemberIndex(r.s.ShardIndex(key)))
		th.StartOp()
		deadline := time.Now().Add(r.cfg.StallHold)
		for time.Now().Before(deadline) && !r.stop.Load() {
			th.Poll()
			time.Sleep(20 * time.Microsecond)
		}
		th.EndOp()
		r.stalls.Add(1)
	}
	h.Flush()
	r.s.Release(h)
}

// gcLoop forces a GC cycle every GCEvery with a rotating allocation
// ballast, so reclamation constantly races the runtime's own memory
// machinery.
func (r *Runner) gcLoop() {
	defer r.wg.Done()
	var ballast [][]byte
	for !r.stop.Load() {
		ballast = append(ballast, make([]byte, 64<<10))
		if len(ballast) >= 16 {
			ballast = ballast[:0]
		}
		runtime.GC()
		r.gcCycles.Add(1)
		time.Sleep(r.cfg.GCEvery)
	}
}

// churner oscillates the live thread count: lease its reserved slot
// (one of Config.Slots) from the store's pool, run a burst of ops,
// release — every cycle donates any unreclaimed retires to the orphan
// queue for some later thread to adopt.
func (r *Runner) churner(seed uint64) {
	defer r.wg.Done()
	rg := rng.New(seed)
	var (
		kb         [workload.KeyLen]byte
		vbuf, gbuf []byte
	)
	tag := uint32(seed) | 0x40000000
	for !r.stop.Load() {
		h, err := r.s.Acquire()
		if err != nil {
			// The group was sized without the injectors' Config.Slots.
			panic(fmt.Sprintf("chaos: churner lease: %v", err))
		}
		r.leases.Add(1)
		for i := 0; i < r.cfg.ChurnOps && !r.stop.Load(); i++ {
			key := workload.PutKey(&kb, rg.Intn(r.keys))
			switch p := rg.Pct(); {
			case p < 50:
				if v, ok := r.s.Get(h, key, gbuf); ok {
					gbuf = v
				}
			case p < 90:
				tag++
				vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(key), tag, 32)
				r.s.Put(h, key, vbuf)
			default:
				r.s.Delete(h, key)
			}
			r.ops.Add(1)
		}
		r.s.Release(h)
	}
}

// hotspotFlipper concentrates overwrites on one shard's keys, flipping
// the target shard every FlipEvery — retirement pressure that moves
// around the store instead of spreading evenly.
func (r *Runner) hotspotFlipper(h *core.GroupHandle, seed uint64) {
	defer r.wg.Done()
	rg := rng.New(seed)
	var (
		kb   [workload.KeyLen]byte
		vbuf []byte
	)
	// Bucket the key population's ranks by shard once.
	byShard := make([][]int32, r.s.Shards())
	for rank := int64(0); rank < r.keys; rank++ {
		sh := r.s.ShardIndex(workload.PutKey(&kb, rank))
		byShard[sh] = append(byShard[sh], int32(rank))
	}
	tag := uint32(seed) | 0x80000000
	for !r.stop.Load() {
		sh := int(rg.Intn(int64(len(byShard))))
		if len(byShard[sh]) == 0 {
			continue
		}
		hot := byShard[sh]
		deadline := time.Now().Add(r.cfg.FlipEvery)
		for time.Now().Before(deadline) && !r.stop.Load() {
			key := workload.PutKey(&kb, int64(hot[rg.Intn(int64(len(hot)))]))
			tag++
			vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(key), tag, 48)
			r.s.Put(h, key, vbuf)
			r.ops.Add(1)
		}
		r.flips.Add(1)
	}
	h.Flush()
	r.s.Release(h)
}
