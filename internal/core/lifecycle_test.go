package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
)

func TestTryRegisterThreadCapacityError(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, nil)
	if _, err := d.TryRegisterThread(); err != nil {
		t.Fatalf("first lease: %v", err)
	}
	b, err := d.TryRegisterThread()
	if err != nil {
		t.Fatalf("second lease: %v", err)
	}
	if _, err := d.TryRegisterThread(); err == nil {
		t.Fatal("third lease at capacity 2 did not error")
	} else if !errors.Is(err, core.ErrNoSlots) {
		t.Fatalf("exhaustion error is not ErrNoSlots: %v", err)
	} else if !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("unhelpful capacity error: %v", err)
	}
	// A release makes the capacity error go away without growing slots.
	b.Release()
	if _, err := d.TryRegisterThread(); err != nil {
		t.Fatalf("lease after release: %v", err)
	}
}

func TestSlotReuse(t *testing.T) {
	d := core.NewDomain(core.HazardPtrPOP, 2, nil)
	a := d.RegisterThread()
	b := d.RegisterThread()
	if a.Incarnation() != 1 || b.Incarnation() != 1 {
		t.Fatalf("fresh incarnations = %d, %d, want 1, 1", a.Incarnation(), b.Incarnation())
	}
	bid := b.ID()
	b.Release()
	c := d.RegisterThread() // must re-lease b's slot, not grow
	if c.ID() != bid {
		t.Fatalf("re-lease got slot %d, want released slot %d", c.ID(), bid)
	}
	if c.Incarnation() != 2 {
		t.Fatalf("re-leased incarnation = %d, want 2", c.Incarnation())
	}
	lc := d.Lifecycle()
	if lc.Slots != 2 || lc.Leased != 2 || lc.Peak != 2 || lc.Releases != 1 {
		t.Fatalf("lifecycle = %+v", lc)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	th := d.RegisterThread()
	th.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	th.Release()
}

func TestReleaseInsideOpPanics(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	th := d.RegisterThread()
	th.StartOp()
	defer func() {
		if recover() == nil {
			t.Fatal("Release inside an operation did not panic")
		}
	}()
	th.Release()
}

// TestOrphanAdoption checks, for every reclaiming policy, that a
// departing thread's unreclaimed retire list is donated to the domain
// and fully freed by a surviving thread's flush — no nodes stranded.
func TestOrphanAdoption(t *testing.T) {
	for _, p := range core.Policies() {
		if p == core.NR {
			continue // NR leaks by design and never holds a retire list
		}
		p := p
		t.Run(p.String(), func(t *testing.T) {
			// Threshold high enough that the departing thread never
			// reclaims on its own; small Crystalline batches so sealed
			// batches are part of the donation.
			e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 1 << 20, BatchSize: 8})
			survivor := e.d.RegisterThread()
			departing := e.d.RegisterThread()
			cache := e.pool.NewCache()

			const rounds = 100
			for i := 0; i < rounds; i++ {
				departing.StartOp()
				n := e.alloc(departing, cache, int64(i))
				departing.Retire(&n.Header)
				departing.EndOp()
			}
			departing.Release()

			lc := e.d.Lifecycle()
			if lc.OrphanNodes != rounds || lc.OrphansDonated != rounds {
				t.Fatalf("after release: lifecycle = %+v, want %d donated", lc, rounds)
			}
			if got := e.d.Unreclaimed(); got != rounds {
				t.Fatalf("Unreclaimed = %d, want %d (orphans must be counted)", got, rounds)
			}

			survivor.Flush()
			lc = e.d.Lifecycle()
			if lc.OrphanNodes != 0 || lc.OrphansAdopted != rounds {
				t.Fatalf("after flush: lifecycle = %+v, want %d adopted", lc, rounds)
			}
			if got := e.d.Unreclaimed(); got != 0 {
				t.Fatalf("flush left %d unreclaimed orphan nodes", got)
			}
			if got := e.pool.Outstanding(); got != 0 {
				t.Fatalf("pool outstanding = %d after adoption flush", got)
			}
		})
	}
}

// TestOrphanHeldByReclaimer: a pass must not free a node that the
// reclaiming thread itself still holds inside its operation, when the
// node reaches its retire list by orphan adoption rather than by its own
// retire. The reader protects X; a second tenant unlinks X, retires it
// and releases, so X waits in the orphanage; two retires of the reader's
// own then run a pass (threshold 2) that adopts X. Under NBR the reader
// is in its read phase, so X is named only by its private reservations —
// hmlist.find retires after ExitWritePhase and keeps walking from what
// it holds.
func TestOrphanHeldByReclaimer(t *testing.T) {
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 2})
			// Freed nodes are poisoned (caches are drawn from e.pool
			// lazily, so swapping it here is in time).
			e.pool = arena.NewPool[tnode](nil, func(n *tnode) { n.val = -1 })
			reader := e.d.RegisterThread()
			cache := e.cacheFor(reader)
			var cell core.Atomic
			cell.Store(unsafe.Pointer(e.alloc(reader, cache, 42)))

			reader.StartOp()
			raw, ok := reader.Protect(0, &cell)
			if !ok {
				t.Fatal("Protect restarted with no reclaimer running")
			}
			x := (*tnode)(raw)

			other := e.d.RegisterThread()
			other.StartOp()
			cell.Store(nil)
			other.Retire(&x.Header)
			other.EndOp()
			other.Release()

			for i := 0; i < 2; i++ {
				reader.Retire(&e.alloc(reader, cache, int64(i)).Header)
			}
			if x.val != 42 {
				t.Fatalf("the reader's own pass freed the adopted node it holds (Frees=%d)", e.d.Stats().Frees)
			}
			reader.EndOp()
			reader.Flush()
			if got := e.d.Unreclaimed(); p != core.NR && got != 0 {
				t.Fatalf("%d nodes unreclaimed after the reader's flush", got)
			}
		})
	}
}

// TestOrphanageBounded is the release-debt rule: when every tenant
// leases, retires a node or two and releases — never reaching
// ReclaimThreshold on its own — the domain must still run one pass per
// threshold of retires, so unreclaimed garbage stays bounded by the
// threshold, and must not run more than that when a parked reader keeps
// the passes from freeing anything.
func TestOrphanageBounded(t *testing.T) {
	const (
		threshold = 64
		total     = 10 * threshold
	)
	// tenants churns short-lived tenants until they have retired total
	// nodes between them, calling check after every release.
	tenants := func(e *env, check func(retired int)) {
		cache := e.pool.NewCache()
		for retired := 0; retired < total; {
			th := e.d.RegisterThread()
			th.StartOp()
			for k := 0; k <= retired%2; k++ {
				n := e.alloc(th, cache, int64(retired))
				th.Retire(&n.Header)
				retired++
			}
			th.EndOp()
			th.Release()
			check(retired)
		}
	}
	for _, p := range core.Policies() {
		if p == core.NR {
			continue // NR leaks by design and never holds a retire list
		}
		opts := &core.Options{ReclaimThreshold: threshold, BatchSize: 8}
		t.Run(p.String()+"/idle", func(t *testing.T) {
			e := newEnv(t, p, 1, opts)
			tenants(e, func(retired int) {
				// The debt is settled at the release that reaches the
				// threshold; that tenant's own list is the slack.
				if got := e.d.Unreclaimed(); got > threshold+2 {
					t.Fatalf("after %d retires: Unreclaimed = %d, want <= %d", retired, got, threshold+2)
				}
			})
			if got := e.d.ReclaimStats().Passes; got < 9 {
				t.Fatalf("Passes = %d after %d retires at threshold %d, want >= 9", got, total, threshold)
			}
		})
		t.Run(p.String()+"/parked-reader", func(t *testing.T) {
			e := newEnv(t, p, 2, opts)
			reader := e.d.RegisterThread()
			stop, parked := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(parked)
				// Mid-operation for the whole run, answering pings: the
				// reader that pins whatever its policy lets it pin.
				reader.StartOp()
				for {
					select {
					case <-stop:
						reader.EndOp()
						return
					default:
						reader.Poll()
						runtime.Gosched()
					}
				}
			}()
			tenants(e, func(int) {})
			close(stop)
			<-parked
			if got, max := e.d.ReclaimStats().Passes, uint64(total/threshold+1); got > max {
				t.Fatalf("Passes = %d for %d retires at threshold %d, want <= %d (a pass per release?)", got, total, threshold, max)
			}
		})
	}
}

// TestReleasedSlotInvisibleToScanners releases a thread that had
// protected a node and checks another thread can then free it: the
// released slot's reservations must read empty.
func TestReleasedSlotInvisibleToScanners(t *testing.T) {
	for _, p := range []core.Policy{core.HP, core.HPAsym, core.HE, core.HazardPtrPOP, core.HazardEraPOP} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 2})
			reader := e.d.RegisterThread()
			reclaimer := e.d.RegisterThread()
			cache := e.pool.NewCache()

			reclaimer.StartOp()
			n := e.alloc(reclaimer, cache, 7)
			var cell core.Atomic
			cell.Store(unsafe.Pointer(n))

			reader.StartOp()
			reader.Protect(0, &cell)
			reader.EndOp()
			reader.Release()

			cell.Store(nil)
			reclaimer.Retire(&n.Header)
			for i := 0; i < 4; i++ {
				f := e.alloc(reclaimer, cache, int64(i))
				reclaimer.Retire(&f.Header)
			}
			reclaimer.EndOp()
			reclaimer.Flush()
			if n.Header.Retired() {
				t.Fatal("node still retired: released slot's reservation pinned it")
			}
		})
	}
}

// TestHandlesPool exercises the acquire/release facade over a flat
// domain (a group of one): growth to cap, exhaustion error, reuse after
// release, Do, and the counters.
func TestHandlesPool(t *testing.T) {
	pool := core.NewDomainGroup(core.EpochPOP, 1, 3, nil)
	if pool.Cap() != 3 || pool.Members() != 1 || pool.Member(0).MaxThreads() != 3 {
		t.Fatalf("Cap/Member wiring: cap=%d members=%d", pool.Cap(), pool.Members())
	}
	a, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire(); err == nil {
		t.Fatal("Acquire past cap did not error")
	} else if !errors.Is(err, core.ErrNoSlots) {
		t.Fatalf("Acquire exhaustion error is not ErrNoSlots: %v", err)
	}
	if pool.InUse() != 3 || pool.Peak() != 3 {
		t.Fatalf("InUse=%d Peak=%d, want 3, 3", pool.InUse(), pool.Peak())
	}
	bslot, btid := b.Slot(), b.Member(0).ID()
	pool.Release(b)
	if pool.InUse() != 2 {
		t.Fatalf("InUse after release = %d", pool.InUse())
	}
	if err := pool.Do(func(h *core.GroupHandle) error {
		th := h.Member(0)
		th.StartOp()
		th.EndOp()
		if h.Slot() != bslot || th.ID() != btid {
			t.Fatalf("Do leased slot %d (thread %d), want released slot %d (thread %d)", h.Slot(), th.ID(), bslot, btid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 2 || pool.Acquires() != 4 {
		t.Fatalf("InUse=%d Acquires=%d after Do", pool.InUse(), pool.Acquires())
	}
	pool.Release(a)
	pool.Release(c)
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after releasing all", pool.InUse())
	}
}

// TestLeaseChurnAllPolicies hammers lease → protected retires → release
// from many goroutines for every policy, then verifies a final flush
// leaves nothing unreclaimed (except NR's accounted leak).
func TestLeaseChurnAllPolicies(t *testing.T) {
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			const (
				churners = 4
				legs     = 16
				opsPer   = 32
			)
			pool := core.NewDomainGroup(p, 1, churners+1, &core.Options{ReclaimThreshold: 64, EpochFreq: 8, BatchSize: 8})
			e := newEnvOn(pool.Member(0))
			var wg sync.WaitGroup
			var retires int64
			var mu sync.Mutex
			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					local := int64(0)
					for leg := 0; leg < legs; leg++ {
						h, err := pool.Acquire()
						if err != nil {
							t.Error(err)
							return
						}
						th := h.Member(0)
						cache := e.cacheFor(th)
						var cell core.Atomic
						for i := 0; i < opsPer; i++ {
							th.StartOp()
							n := e.alloc(th, cache, int64(i))
							cell.Store(unsafe.Pointer(n))
							// An NBR-neutralized Protect (ok=false) changes
							// nothing here: the node is ours alone, so we
							// unlink and retire it either way.
							th.Protect(0, &cell)
							cell.Store(nil)
							th.Retire(&n.Header)
							local++
							th.EndOp()
						}
						pool.Release(h)
					}
					mu.Lock()
					retires += local
					mu.Unlock()
				}()
			}
			wg.Wait()
			collector, err := pool.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			collector.Member(0).Flush()
			pool.Release(collector)
			want := int64(0)
			if p == core.NR {
				want = retires // the accounted leak
			}
			if got := pool.Unreclaimed(); got != want {
				t.Fatalf("Unreclaimed = %d after churn flush, want %d (lifecycle %+v)", got, want, pool.Lifecycle())
			}
			if p != core.NR {
				if got := e.pool.Outstanding(); got != 0 {
					t.Fatalf("pool outstanding = %d after churn flush", got)
				}
			}
			lc := pool.Lifecycle()
			if lc.Releases != churners*legs+1 {
				t.Fatalf("releases = %d, want %d", lc.Releases, churners*legs+1)
			}
			if lc.Slots > churners+1 {
				t.Fatalf("slots grew to %d despite reuse (cap %d)", lc.Slots, churners+1)
			}
		})
	}
}

// TestSlotLeaseCounts checks Lifecycle's per-slot acquire counts: every
// lease of a slot shows up as that slot's incarnation.
func TestSlotLeaseCounts(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, nil)
	a := d.RegisterThread()
	b := d.RegisterThread()
	bid := b.ID()
	b.Release()
	d.RegisterThread() // re-leases b's slot: its count goes to 2
	lc := d.Lifecycle()
	if len(lc.SlotLeases) != 2 {
		t.Fatalf("SlotLeases length = %d, want 2", len(lc.SlotLeases))
	}
	if lc.SlotLeases[a.ID()] != 1 || lc.SlotLeases[bid] != 2 {
		t.Fatalf("SlotLeases = %v, want slot %d at 1 and slot %d at 2", lc.SlotLeases, a.ID(), bid)
	}
	var total uint64
	for _, n := range lc.SlotLeases {
		total += n
	}
	if want := lc.Releases + uint64(lc.Leased); total != want {
		t.Fatalf("SlotLeases sum = %d, want releases+leased = %d", total, want)
	}
}

// TestAcquireWaitBlocksUntilRelease saturates a one-slot pool, parks an
// AcquireWait behind it, and checks the waiter is admitted exactly when
// the holder releases.
func TestAcquireWaitBlocksUntilRelease(t *testing.T) {
	pool := core.NewDomainGroup(core.HazardPtrPOP, 1, 1, nil)
	holder, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	slot, tid := holder.Slot(), holder.Member(0).ID()
	admitted := make(chan *core.GroupHandle)
	go func() {
		th, err := pool.AcquireWait(context.Background())
		if err != nil {
			t.Errorf("AcquireWait: %v", err)
			close(admitted)
			return
		}
		admitted <- th
	}()
	// The waiter must be parked, not admitted: give it time to enqueue.
	select {
	case <-admitted:
		t.Fatal("AcquireWait admitted past a saturated group")
	case <-time.After(20 * time.Millisecond):
	}
	if pool.Waiting() != 1 {
		t.Fatalf("Waiting = %d, want 1", pool.Waiting())
	}
	pool.Release(holder)
	select {
	case th := <-admitted:
		if th == nil {
			t.Fatal("AcquireWait errored after release")
		}
		if th.Slot() != slot || th.Member(0).ID() != tid {
			t.Fatalf("waiter admitted to slot %d (thread %d), want released slot %d (thread %d)", th.Slot(), th.Member(0).ID(), slot, tid)
		}
		pool.Release(th)
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireWait still parked after Release")
	}
	if pool.Waits() == 0 {
		t.Fatal("Waits counter did not record the queued acquire")
	}
}

// TestAcquireWaitContextTimeout checks a parked waiter is unparked with
// its context's error, leaves the queue, and does not leak a wakeup.
func TestAcquireWaitContextTimeout(t *testing.T) {
	pool := core.NewDomainGroup(core.EBR, 1, 1, nil)
	holder, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := pool.AcquireWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireWait under saturation = %v, want DeadlineExceeded", err)
	}
	if pool.Waiting() != 0 {
		t.Fatalf("timed-out waiter still queued (Waiting = %d)", pool.Waiting())
	}
	// The slot must still be cleanly admittable afterwards.
	pool.Release(holder)
	th, err := pool.AcquireWait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(th)
}

// TestAcquireWaitStorm floods a tiny pool with far more waiters than
// slots and checks every one is eventually admitted, does work, and
// that the pool drains to zero without leaking leases.
func TestAcquireWaitStorm(t *testing.T) {
	const (
		slots   = 2
		workers = 16
		legs    = 25
	)
	pool := core.NewDomainGroup(core.EpochPOP, 1, slots, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < legs; i++ {
				h, err := pool.AcquireWait(ctx)
				if err != nil {
					t.Errorf("AcquireWait: %v", err)
					return
				}
				th := h.Member(0)
				th.StartOp()
				th.EndOp()
				pool.Release(h)
			}
		}()
	}
	wg.Wait()
	if pool.InUse() != 0 || pool.Waiting() != 0 {
		t.Fatalf("after storm: InUse=%d Waiting=%d, want 0, 0", pool.InUse(), pool.Waiting())
	}
	lc := pool.Lifecycle()
	if lc.Leased != 0 {
		t.Fatalf("leaked leases: %+v", lc)
	}
	if lc.Slots > slots {
		t.Fatalf("slots grew to %d past the cap %d", lc.Slots, slots)
	}
	if lc.Releases != workers*legs {
		t.Fatalf("releases = %d, want %d", lc.Releases, workers*legs)
	}
}
