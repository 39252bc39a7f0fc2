package core_test

import (
	"testing"
	"unsafe"

	"pop/internal/core"
)

func TestRegisterThreadCapacity(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, nil)
	d.RegisterThread()
	d.RegisterThread()
	defer func() {
		if recover() == nil {
			t.Fatal("third RegisterThread did not panic at capacity 2")
		}
	}()
	d.RegisterThread()
}

func TestNewDomainValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(0 threads) did not panic")
		}
	}()
	core.NewDomain(core.EBR, 0, nil)
}

// TestNewDomainRejectsUnknownPolicy: a policy outside the eleven panics
// in NewDomain itself, before any thread can reach a switch on it.
func TestNewDomainRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(unknown policy) did not panic")
		}
	}()
	core.NewDomain(core.Policy(len(core.Policies())), 1, nil)
}

// TestThreadsSnapshot: the domain's probes list one entry per thread
// slot, in slot order, each a first tenancy.
func TestThreadsSnapshot(t *testing.T) {
	d := core.NewDomain(core.HP, 3, nil)
	a := d.RegisterThread()
	b := d.RegisterThread()
	ps := d.Probes(nil)
	if len(ps) != 2 || ps[0].Slot != a.ID() || ps[1].Slot != b.ID() {
		t.Fatalf("Probes() = %+v", ps)
	}
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatalf("ids = %d, %d", a.ID(), b.ID())
	}
	if ps[0].Incarnation != 1 || ps[1].Incarnation != 1 {
		t.Fatalf("incarnations = %d, %d, want 1, 1", ps[0].Incarnation, ps[1].Incarnation)
	}
}

func TestOptionsDefaults(t *testing.T) {
	// A zero Options must yield the paper's defaults; verify indirectly:
	// reclamation must not trigger before 24576 retires.
	e := newEnv(t, core.HP, 1, &core.Options{})
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	th.StartOp()
	for i := 0; i < 1000; i++ {
		n := e.alloc(th, cache, int64(i))
		th.Retire(&n.Header)
	}
	th.EndOp()
	if got := th.StatsSnapshot().Frees; got != 0 {
		t.Fatalf("reclaimed after only 1000 retires with default threshold (frees=%d)", got)
	}
	if got := th.RetireListLen(); got != 1000 {
		t.Fatalf("retire list = %d", got)
	}
}

func TestRobustClassification(t *testing.T) {
	robust := map[core.Policy]bool{
		core.NR: false, core.EBR: false, core.Crystalline: false,
		core.HP: true, core.HPAsym: true, core.HE: true, core.IBR: true,
		core.NBR: true, core.HazardPtrPOP: true, core.HazardEraPOP: true,
		core.EpochPOP: true,
	}
	for p, want := range robust {
		if got := p.Robust(); got != want {
			t.Fatalf("%v.Robust() = %v, want %v", p, got, want)
		}
	}
}

// TestProtectSlotBoundsDebug: an out-of-range slot panics in Protect
// itself, under every policy and with no option to ask for it (the name
// is from when the check was Options.Debug's). TryProtect answers the
// same slot with (nil, false) instead, and outside the four policies it
// decides (the ones TryProtects reports) it leaves every counter where it
// was.
func TestProtectSlotBoundsDebug(t *testing.T) {
	for _, p := range core.Policies() {
		fast := false
		switch p {
		case core.NR, core.EBR, core.HazardPtrPOP, core.EpochPOP:
			fast = true
		}
		for _, slot := range []int{core.MaxSlots, -1} {
			d := core.NewDomain(p, 1, nil)
			th := d.RegisterThread()
			var cell core.Atomic
			cell.Store(unsafe.Pointer(new(tnode)))
			th.StartOp()
			if got, ok := th.TryProtect(slot, &cell); got != nil || ok {
				t.Errorf("%v: TryProtect(slot %d) = (%p, %v), want (nil, false)", p, slot, got, ok)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: Protect(slot %d) did not panic", p, slot)
					}
				}()
				th.Protect(slot, &cell)
			}()
			th.EndOp()
		}
		d := core.NewDomain(p, 1, nil)
		th := d.RegisterThread()
		if got := th.TryProtects(); got != fast {
			t.Errorf("%v: TryProtects() = %v, want %v", p, got, fast)
		}
		if fast {
			continue
		}
		var cell core.Atomic
		cell.Store(unsafe.Pointer(new(tnode)))
		th.StartOp()
		before := d.Stats()
		for slot := 0; slot < core.MaxSlots; slot++ {
			if _, ok := th.TryProtect(slot, &cell); ok {
				t.Errorf("%v: TryProtect(slot %d) decided a read; only NR, EBR, HazardPtrPOP and EpochPOP do", p, slot)
			}
		}
		if after := d.Stats(); after != before {
			t.Errorf("%v: TryProtect moved the counters:\n before %+v\n after  %+v", p, before, after)
		}
		th.EndOp()
	}
}

func TestFlushIdempotent(t *testing.T) {
	e := newEnv(t, core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: 4})
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	th.StartOp()
	for i := 0; i < 10; i++ {
		n := e.alloc(th, cache, int64(i))
		th.Retire(&n.Header)
	}
	th.EndOp()
	th.Flush()
	th.Flush() // second flush on an empty list must be a no-op
	th.Flush()
	if e.pool.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", e.pool.Outstanding())
	}
}

func TestEndOpClearsReservations(t *testing.T) {
	// After EndOp, a previously protected node must become freeable by
	// another thread's reclamation.
	e := newEnv(t, core.HP, 2, &core.Options{ReclaimThreshold: 2})
	reader := e.d.RegisterThread()
	reclaimer := e.d.RegisterThread()
	cache := e.pool.NewCache()

	reclaimer.StartOp()
	n := e.alloc(reclaimer, cache, 9)
	var cell core.Atomic
	cell.Store(unsafe.Pointer(n))

	reader.StartOp()
	reader.Protect(3, &cell) // arbitrary high slot: EndOp must clear it too
	reader.EndOp()

	cell.Store(nil)
	reclaimer.Retire(&n.Header)
	for i := 0; i < 4; i++ {
		f := e.alloc(reclaimer, cache, int64(i))
		reclaimer.Retire(&f.Header)
	}
	reclaimer.EndOp()
	if n.Header.Retired() {
		t.Fatal("node still unreclaimed after reader's EndOp released it")
	}
}

func TestAtomicCellOps(t *testing.T) {
	var cell core.Atomic
	var x, y int64
	px, py := unsafe.Pointer(&x), unsafe.Pointer(&y)
	if cell.Load() != nil {
		t.Fatal("zero cell not nil")
	}
	cell.Store(px)
	if cell.Load() != px {
		t.Fatal("store/load")
	}
	if cell.CompareAndSwap(py, px) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if !cell.CompareAndSwap(px, py) || cell.Load() != py {
		t.Fatal("CAS failed")
	}
	cell.Raw(px)
	if cell.Load() != px {
		t.Fatal("Raw init")
	}
}

func TestStatsAggregation(t *testing.T) {
	e := newEnv(t, core.HP, 2, &core.Options{ReclaimThreshold: 4})
	a := e.d.RegisterThread()
	b := e.d.RegisterThread()
	cache := e.pool.NewCache()
	for _, th := range []*core.Thread{a, b} {
		th.StartOp()
		for i := 0; i < 6; i++ {
			n := e.alloc(th, cache, int64(i))
			th.Retire(&n.Header)
		}
		th.EndOp()
	}
	agg := e.d.Stats()
	if agg.Retires != 12 {
		t.Fatalf("aggregate retires = %d, want 12", agg.Retires)
	}
	sa, sb := a.StatsSnapshot(), b.StatsSnapshot()
	if sa.Retires+sb.Retires != agg.Retires {
		t.Fatal("aggregate != sum of per-thread stats")
	}
	if agg.MaxRetire < sa.MaxRetire || agg.MaxRetire < sb.MaxRetire {
		t.Fatal("aggregate MaxRetire below a thread's")
	}
}

func TestHeaderRetiredFlagLifecycle(t *testing.T) {
	e := newEnv(t, core.HP, 1, &core.Options{ReclaimThreshold: 1})
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	n := e.alloc(th, cache, 1)
	if n.Header.Retired() {
		t.Fatal("fresh node reads retired")
	}
	th.StartOp()
	th.Retire(&n.Header)
	th.EndOp()
	th.Flush()
	if n.Header.Retired() {
		t.Fatal("flag not cleared by free")
	}
}
