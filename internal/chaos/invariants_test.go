// Seeded-violation tests: each invariant in Invariants is driven to
// fire by deliberately injecting the fault it claims to detect — a
// corrupted checksum, a leaked lease, orphaned retires, a skipped
// flush — plus a clean control proving the check passes when the fault
// is absent. A checker that cannot fail is worse than no checker.
package chaos

import (
	"strings"
	"sync/atomic"
	"testing"

	"pop/internal/core"
	"pop/internal/store"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

// CheckValues walks keys through the store and verifies every present
// value against its key's checksum ("value-checksum"): a stale, torn
// or cross-key value — the value-plane symptom of a use-after-free —
// fails. The walk runs on h as an ordinary reader; the storms run it
// after their workers stop.
func (iv Invariants) CheckValues(h *core.GroupHandle, s *store.Store, keys []string) []Violation {
	var vs []Violation
	var buf []byte
	bad := 0
	for _, k := range keys {
		v, ok := s.Get(h, k, buf)
		if !ok {
			continue
		}
		buf = v
		if !workload.ValueBytesValid(store.KeyHash(k), v) {
			bad++
			if bad <= 3 { // name the first few, count the rest
				vs = violate(vs, "value-checksum", "key %q served a value failing its checksum (%d bytes)", k, len(v))
			}
		}
	}
	if bad > 3 {
		vs = violate(vs, "value-checksum", "%d keys total served checksum-failing values", bad)
	}
	return vs
}

func hasInvariant(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// TestSeededChecksumCorruption: a deliberately garbage value must trip
// "value-checksum"; the uncorrupted store must not.
func TestSeededChecksumCorruption(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 2, 2, nil)
	s, err := store.New(g, store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(h)
	keys := make([]string, 64)
	var vbuf []byte
	for i := range keys {
		keys[i] = workload.KeyString(int64(i))
		vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(keys[i]), uint32(i)+1, 24)
		s.Put(h, keys[i], vbuf)
	}
	iv := Invariants{Policy: core.EBR}
	if vs := iv.CheckValues(h, s, keys); len(vs) != 0 {
		t.Fatalf("control: clean store reported %v", vs)
	}
	// Seed the fault: a payload AppendValueBytes never produced.
	s.Put(h, keys[17], []byte("garbage value, no checksum!!"))
	vs := iv.CheckValues(h, s, keys)
	if !hasInvariant(vs, "value-checksum") {
		t.Fatalf("corrupted value not detected: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, keys[17]) {
		t.Errorf("violation does not name the corrupted key: %v", vs[0])
	}
	// Counter form.
	if vs := iv.CheckValueErrors(0); len(vs) != 0 {
		t.Errorf("control: CheckValueErrors(0) = %v", vs)
	}
	if vs := iv.CheckValueErrors(3); !hasInvariant(vs, "value-errors") {
		t.Errorf("CheckValueErrors(3) not flagged: %v", vs)
	}
}

// TestSeededLeaseLeak: a handle acquired and never released must trip
// "lifecycle"; releasing it clears the violation.
func TestSeededLeaseLeak(t *testing.T) {
	pool := core.NewDomainGroup(core.HP, 1, 4, nil)
	iv := Invariants{Policy: core.HP}

	leaked, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	leaked.Member(0) // a group slot alone holds no thread slot
	vs := iv.CheckLifecycle(pool.Lifecycle(), 0)
	if !hasInvariant(vs, "lifecycle") {
		t.Fatalf("leaked lease not detected: %v", vs)
	}
	pool.Release(leaked)
	if vs := iv.CheckLifecycle(pool.Lifecycle(), 0); len(vs) != 0 {
		t.Fatalf("control: balanced lifecycle reported %v", vs)
	}
}

// TestSeededOrphanedRetires: releasing a thread whose retires nobody
// adopts must trip the orphan half of "lifecycle"; a flush by a live
// thread (which adopts) clears it.
func TestSeededOrphanedRetires(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, &core.Options{ReclaimThreshold: 1 << 20})
	var outstanding atomic.Int64
	typ := d.RegisterType(func(_ *core.Thread, _ *core.Header) { outstanding.Add(-1) })

	departing := d.RegisterThread()
	keeper := d.RegisterThread()
	departing.StartOp()
	for i := 0; i < 8; i++ {
		h := new(core.Header)
		departing.OnAlloc(h, typ)
		outstanding.Add(1)
		departing.Retire(h)
	}
	departing.EndOp()
	departing.Release() // donates the 8 retires to the orphan queue

	iv := Invariants{Policy: core.EBR}
	vs := iv.CheckLifecycle(d.Lifecycle(), 1)
	if !hasInvariant(vs, "lifecycle") {
		t.Fatalf("orphaned retires not detected: %v", vs)
	}
	keeper.Flush() // adopt + reclaim
	if vs := iv.CheckLifecycle(d.Lifecycle(), 1); len(vs) != 0 {
		t.Fatalf("control: post-adoption lifecycle reported %v", vs)
	}
	if got := outstanding.Load(); got != 0 {
		t.Fatalf("%d orphaned nodes never freed", got)
	}
	keeper.Release()
}

// TestSeededSkippedFlush: retires left sitting in a thread's list must
// trip "drain"; flushing clears it.
func TestSeededSkippedFlush(t *testing.T) {
	d := core.NewDomain(core.HE, 2, &core.Options{ReclaimThreshold: 1 << 20})
	typ := d.RegisterType(func(_ *core.Thread, _ *core.Header) {})
	th := d.RegisterThread()

	th.StartOp()
	for i := 0; i < 16; i++ {
		h := new(core.Header)
		th.OnAlloc(h, typ)
		th.Retire(h)
	}
	th.EndOp()

	iv := Invariants{Policy: core.HE}
	vs := iv.CheckLeaked(d.Unreclaimed())
	if !hasInvariant(vs, "drain") {
		t.Fatalf("skipped flush not detected (unreclaimed=%d): %v", d.Unreclaimed(), vs)
	}
	th.Flush()
	if vs := iv.CheckLeaked(d.Unreclaimed()); len(vs) != 0 {
		t.Fatalf("control: drained domain reported %v (unreclaimed=%d)", vs, d.Unreclaimed())
	}
	th.Release()
	// NR is exempt by design.
	if vs := (Invariants{Policy: core.NR}).CheckLeaked(100); len(vs) != 0 {
		t.Errorf("NR not exempt from drain: %v", vs)
	}
}

// TestSeededCounterFaults: each counter-sanity clause fires on the
// ledger it guards.
func TestSeededCounterFaults(t *testing.T) {
	iv := Invariants{Policy: core.EBR}
	if vs := iv.CheckCounters(core.Stats{Retires: 100, Frees: 90}); len(vs) != 0 {
		t.Errorf("control: sane counters reported %v", vs)
	}
	if vs := iv.CheckCounters(core.Stats{Retires: 5, Frees: 10}); !hasInvariant(vs, "counters") {
		t.Error("frees > retires not flagged")
	}
	if vs := iv.CheckCounters(core.Stats{Retires: 5000, Frees: 0}); !hasInvariant(vs, "counters") {
		t.Error("zero reclamation progress not flagged")
	}
	nr := Invariants{Policy: core.NR}
	if vs := nr.CheckCounters(core.Stats{Retires: 5000, Frees: 1}); !hasInvariant(vs, "counters") {
		t.Error("NR freeing not flagged")
	}
	if vs := nr.CheckCounters(core.Stats{Retires: 5000, Frees: 0}); len(vs) != 0 {
		t.Errorf("control: NR never freeing reported %v", vs)
	}
}

func TestErrs(t *testing.T) {
	if err := Errs(nil); err != nil {
		t.Errorf("Errs(nil) = %v", err)
	}
	err := Errs([]Violation{
		{Invariant: "drain", Detail: "x"},
		{Invariant: "balance", Detail: "y"},
	})
	if err == nil || !strings.Contains(err.Error(), "drain: x") || !strings.Contains(err.Error(), "balance: y") {
		t.Errorf("Errs rendering = %v", err)
	}
}

// TestSeededTimelineDivergence: a live sampled run's timeline passes
// (control), then each seeded corruption — a doctored sample delta, a
// phantom op window, a zero-age recovered stall — trips "timeline".
func TestSeededTimelineDivergence(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 2, 2, nil)
	s, err := store.New(g, store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sam := telemetry.NewSampler(g, telemetry.Config{})
	sam.Start()
	h, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	var vbuf []byte
	for i := 0; i < 500; i++ {
		k := workload.KeyString(int64(i % 64))
		vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(k), uint32(i)+1, 24)
		s.Put(h, k, vbuf)
		if i%100 == 99 {
			sam.Tick() // drive sampling deterministically (no ticker configured)
		}
	}
	s.Release(h)
	tl := sam.Stop()
	iv := Invariants{Policy: core.EBR}
	if vs := iv.CheckTimeline(nil); len(vs) != 0 {
		t.Errorf("nil timeline (sampling off) reported %v", vs)
	}
	if vs := iv.CheckTimeline(tl); len(vs) != 0 {
		t.Fatalf("control: clean timeline reported %v", vs)
	}
	if len(tl.Samples) == 0 {
		t.Fatal("sampled run recorded no samples")
	}
	// Seed the fault: a delta the run never produced.
	tl.Samples[0].Stats.Retires++
	if vs := iv.CheckTimeline(tl); !hasInvariant(vs, "timeline") {
		t.Error("doctored sample delta not detected")
	}
	tl.Samples[0].Stats.Retires--
	// A phantom op window: sample ops no final count backs.
	tl.Samples[0].Ops += 7
	if vs := iv.CheckTimeline(tl); !hasInvariant(vs, "timeline") {
		t.Error("phantom op window not detected")
	}
	tl.Samples[0].Ops -= 7
	// A recovered episode that claims to have taken no time at all.
	tl.Stalls = append(tl.Stalls, telemetry.StallEvent{Member: 0, Slot: 1, Recovered: true})
	if vs := iv.CheckTimeline(tl); !hasInvariant(vs, "timeline") {
		t.Error("zero-age recovered stall episode not detected")
	}
}
