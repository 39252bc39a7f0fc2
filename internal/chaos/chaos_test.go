package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/rng"
	"pop/internal/store"
	"pop/internal/workload"
)

// storm builds a store over a domain group with the given member
// count, runs verified workers alongside the full injector bundle, and
// checks every invariant at the end. members=1 is the ungrouped
// degenerate case; members=shards is fully grouped (one reclamation
// domain per shard).
func storm(t *testing.T, p core.Policy, members int) {
	const (
		workers = 2
		shards  = 4
		nKeys   = 2048
		runFor  = 80 * time.Millisecond
	)
	cfg := Config{
		Stalls:     1,
		StallHold:  500 * time.Microsecond,
		GCPressure: true,
		GCEvery:    2 * time.Millisecond,
		Churners:   1,
		ChurnOps:   64,
		Hotspot:    true,
		FlipEvery:  time.Millisecond,
		Seed:       uint64(p) + 1,
	}
	// Workers + injectors + the post-run checker slot.
	g := core.NewDomainGroup(p, members, workers+cfg.Slots()+1, &core.Options{ReclaimThreshold: 128})
	s, err := store.New(g, store.Config{Shards: shards, ExpectedKeysPerShard: nKeys/shards + 1})
	if err != nil {
		t.Fatal(err)
	}
	keyTab := make([]string, nKeys)
	hkTab := make([]int64, nKeys)
	for i := range keyTab {
		keyTab[i] = workload.KeyString(int64(i))
		hkTab[i] = store.KeyHash(keyTab[i])
	}

	// Prefill half the population with valid values.
	seedH, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	var vbuf []byte
	for i := 0; i < nKeys/2; i++ {
		vbuf = workload.AppendValueBytes(vbuf[:0], hkTab[i], uint32(i)+1, 32)
		s.Put(seedH, keyTab[i], vbuf)
	}
	s.Release(seedH)

	r, err := Start(cfg, s, nKeys)
	if err != nil {
		t.Fatal(err)
	}

	// Verified workers: every served value must pass its checksum even
	// while the injectors stall, churn, flip and force GCs. Workers hit
	// keys across all shards, so on a grouped store each worker's handle
	// leases into several members and its ops cross member boundaries —
	// and the churn injector's release/re-lease cycles donate and adopt
	// orphans across every member the departing tenant had touched.
	var (
		stop      atomic.Bool
		valueErrs atomic.Uint64
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		h, err := s.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, h *core.GroupHandle) {
			defer wg.Done()
			rg := rng.New(uint64(id)*0x9e3779b97f4a7c15 + uint64(p) + 3)
			var gbuf, wbuf []byte
			tag := uint32(id) << 20
			for !stop.Load() {
				idx := rg.Intn(nKeys)
				if rg.Pct() < 60 {
					if v, ok := s.Get(h, keyTab[idx], gbuf); ok {
						gbuf = v
						if !workload.ValueBytesValid(hkTab[idx], v) {
							valueErrs.Add(1)
						}
					}
				} else {
					tag++
					wbuf = workload.AppendValueBytes(wbuf[:0], hkTab[idx], tag, 48)
					s.Put(h, keyTab[idx], wbuf)
				}
			}
			h.Flush()
			s.Release(h)
		}(w, h)
	}

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()
	st := r.Stop()

	// The injectors must actually have injected; an idle injector would
	// silently weaken every storm built on this package.
	if st.Stalls == 0 {
		t.Error("stalled-reader injector completed no stall windows")
	}
	if st.GCCycles == 0 {
		t.Error("GC-pressure injector forced no GC cycles")
	}
	if st.Leases == 0 {
		t.Error("churn injector completed no lease cycles")
	}
	if st.Flips == 0 {
		t.Error("hotspot injector flipped no shards")
	}
	if st.Ops == 0 {
		t.Error("injectors issued no store ops")
	}

	iv := Invariants{Policy: p}
	checker, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	var vs []Violation
	vs = append(vs, iv.CheckValueErrors(valueErrs.Load())...)
	vs = append(vs, iv.CheckValues(checker, s, keyTab)...)
	// Drain until quiescent (the first pass adopts donated orphans in
	// every member, including members the checker's walk never leased).
	for i := 0; i < 3; i++ {
		checker.Drain()
		if g.Unreclaimed() == 0 {
			break
		}
	}
	vs = append(vs, iv.CheckDrained(g)...)
	vs = append(vs, iv.CheckCounters(g.Stats())...)
	// Drain leased the checker into every member, so the aggregated
	// leased count is one thread per member.
	vs = append(vs, iv.CheckLifecycle(g.Lifecycle(), g.Members())...)
	for _, v := range vs {
		t.Errorf("invariant violated: %s", v)
	}
	s.Release(checker)
}

// TestChaosStorm runs the full injector bundle against every policy on
// a grouped store (4 shards over 2 member domains) — the CI -race
// chaos suite for domain groups.
func TestChaosStorm(t *testing.T) {
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) { storm(t, p, 2) })
	}
}

// TestChaosStormGroupFactors sweeps the grouping factor — ungrouped,
// and fully grouped (one member per shard) — under the POP policies the
// fan-out argument targets, so cross-group release/re-lease is
// exercised at both extremes.
func TestChaosStormGroupFactors(t *testing.T) {
	for _, p := range []core.Policy{core.EpochPOP, core.HazardPtrPOP} {
		for _, members := range []int{1, 4} {
			p, members := p, members
			t.Run(fmt.Sprintf("%v/members=%d", p, members), func(t *testing.T) {
				storm(t, p, members)
			})
		}
	}
}

func TestConfigSlotsAndEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config reports Enabled")
	}
	if got := (Config{}).Slots(); got != 0 {
		t.Errorf("zero Config Slots = %d", got)
	}
	c := Default()
	if !c.Enabled() {
		t.Error("Default not Enabled")
	}
	if got := c.Slots(); got != 3 { // 1 stall + 1 churner + hotspot
		t.Errorf("Default Slots = %d, want 3", got)
	}
}

// TestStartFailsWithoutCapacity: a group too small for the injectors
// must fail Start cleanly, releasing any partially leased handles.
func TestStartFailsWithoutCapacity(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 1, 1, nil)
	s, err := store.New(g, store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(Config{Stalls: 1, Hotspot: true}, s, 2); err == nil {
		t.Fatal("Start succeeded with 1 slot for 2 injectors")
	}
	// The partial lease must have been returned.
	h, err := s.Acquire()
	if err != nil {
		t.Fatalf("slot not returned after failed Start: %v", err)
	}
	s.Release(h)
}
