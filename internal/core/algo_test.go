package core_test

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
)

// --- Era-based policies: lifespan logic ---

// TestHEKeepsIntersectingLifespan pins an era with a reader and checks HE
// frees only nodes whose lifespan misses the reservation.
func TestHEKeepsIntersectingLifespan(t *testing.T) {
	for _, p := range []core.Policy{core.HE, core.HazardEraPOP} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 4})
			reader := e.d.RegisterThread()
			reclaimer := e.d.RegisterThread()
			cache := e.pool.NewCache()

			// Node A lives in the current era.
			reclaimer.StartOp()
			a := e.alloc(reclaimer, cache, 1)
			var cell core.Atomic
			cell.Store(unsafe.Pointer(a))

			// Reader reserves the current era (and keeps answering pings
			// from its own goroutine).
			ready := make(chan struct{})
			release := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				reader.StartOp()
				reader.Protect(0, &cell)
				close(ready)
				for {
					select {
					case <-release:
						reader.EndOp()
						return
					default:
						reader.Poll()
						runtime.Gosched()
					}
				}
			}()
			<-ready

			// Retire A (lifespan intersects the reader's era) plus filler
			// allocated in later eras.
			cell.Store(nil)
			reclaimer.Retire(&a.Header)
			for i := 0; i < 12; i++ {
				f := e.alloc(reclaimer, cache, int64(i))
				reclaimer.Retire(&f.Header)
			}
			reclaimer.EndOp()

			if !a.Header.Retired() {
				t.Fatal("node with reserved lifespan was freed")
			}
			if reclaimer.StatsSnapshot().Frees == 0 {
				t.Fatal("nothing freed despite unreserved later-era nodes")
			}
			close(release)
			<-done
			reclaimer.Flush()
			if a.Header.Retired() {
				t.Fatal("node not freed after reader released its era")
			}
		})
	}
}

// TestIBRFreesOutsideInterval checks IBR's defining property: a reader's
// reserved interval does not block nodes born after it.
func TestIBRFreesOutsideInterval(t *testing.T) {
	for _, p := range []core.Policy{core.IBR, core.Crystalline} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 4, EpochFreq: 1, BatchSize: 2})
			reader := e.d.RegisterThread()
			reclaimer := e.d.RegisterThread()
			cache := e.pool.NewCache()

			// Reader opens an operation, fixing its interval at the
			// current epoch.
			reader.StartOp()

			// Reclaimer allocates (advancing the epoch every allocation:
			// EpochFreq=1) and retires; those nodes are born after the
			// reader's interval, so they must be freeable.
			reclaimer.StartOp()
			for i := 0; i < 16; i++ {
				f := e.alloc(reclaimer, cache, int64(i))
				reclaimer.Retire(&f.Header)
			}
			reclaimer.EndOp()

			if reclaimer.StatsSnapshot().Frees == 0 {
				t.Fatal("IBR blocked by a reader whose interval predates every birth era")
			}
			reader.EndOp()
			reclaimer.Flush()
		})
	}
}

// TestEBRBlockedByPinnedEpoch checks the non-robustness EBR is famous
// for: a thread inside an operation pins the minimum epoch and no node
// retired after its announcement can be freed.
func TestEBRBlockedByPinnedEpoch(t *testing.T) {
	e := newEnv(t, core.EBR, 2, &core.Options{ReclaimThreshold: 4, EpochFreq: 1})
	pinner := e.d.RegisterThread()
	reclaimer := e.d.RegisterThread()
	cache := e.pool.NewCache()

	pinner.StartOp() // announces the current epoch and sits on it

	reclaimer.StartOp()
	for i := 0; i < 64; i++ {
		f := e.alloc(reclaimer, cache, int64(i))
		reclaimer.Retire(&f.Header)
	}
	reclaimer.EndOp()
	if got := reclaimer.StatsSnapshot().Frees; got != 0 {
		t.Fatalf("EBR freed %d nodes retired after a pinned announcement", got)
	}

	pinner.EndOp()
	reclaimer.Flush()
	if e.pool.Outstanding() != 0 {
		t.Fatal("EBR did not drain after the pin was released")
	}
}

// TestEpochPOPEscalation: same pinned-epoch scenario, but EpochPOP must
// escalate to publish-on-ping and keep freeing around the pinned thread.
func TestEpochPOPEscalation(t *testing.T) {
	e := newEnv(t, core.EpochPOP, 2, &core.Options{ReclaimThreshold: 4, CMult: 2, EpochFreq: 1})
	pinner := e.d.RegisterThread()
	reclaimer := e.d.RegisterThread()
	cache := e.pool.NewCache()

	ready := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pinner.StartOp() // pins the epoch, like EBR's failure case
		close(ready)
		for {
			select {
			case <-release:
				pinner.EndOp()
				return
			default:
				pinner.Poll() // but stays responsive to pings
				runtime.Gosched()
			}
		}
	}()
	<-ready

	reclaimer.StartOp()
	for i := 0; i < 64; i++ {
		f := e.alloc(reclaimer, cache, int64(i))
		reclaimer.Retire(&f.Header)
	}
	reclaimer.EndOp()

	st := reclaimer.StatsSnapshot()
	if st.Frees == 0 {
		t.Fatal("EpochPOP failed to reclaim around a pinned epoch")
	}
	if st.POPReclaims == 0 {
		t.Fatal("EpochPOP never escalated to the publish-on-ping path")
	}
	if st.EpochReclaims == 0 {
		t.Fatal("EpochPOP never tried the epoch fast path")
	}
	close(release)
	<-done
	reclaimer.Flush()
}

// TestEpochPOPFastPathOnly: with no delays, EpochPOP must reclaim purely
// in epoch mode — zero pings is the paper's "POP mechanism not needed at
// all" common case.
func TestEpochPOPFastPathOnly(t *testing.T) {
	e := newEnv(t, core.EpochPOP, 1, &core.Options{ReclaimThreshold: 8, EpochFreq: 2})
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	for i := 0; i < 200; i++ {
		th.StartOp()
		n := e.alloc(th, cache, int64(i))
		th.Retire(&n.Header)
		th.EndOp()
	}
	st := th.StatsSnapshot()
	if st.POPReclaims != 0 || st.PingsSent != 0 {
		t.Fatalf("undelayed EpochPOP used the POP path (pop=%d pings=%d)",
			st.POPReclaims, st.PingsSent)
	}
	if st.Frees == 0 {
		t.Fatal("no epoch-mode frees")
	}
}

// --- Publish-on-ping machinery ---

// TestQuiescentThreadDoesNotBlockPing: a registered thread that never
// runs must not stall a POP reclamation (the opSeq seqlock treats it as
// published-empty, like a signal handler running between operations).
func TestQuiescentThreadDoesNotBlockPing(t *testing.T) {
	for _, p := range []core.Policy{core.HazardPtrPOP, core.HazardEraPOP, core.EpochPOP, core.NBR} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 3, &core.Options{ReclaimThreshold: 4})
			_ = e.d.RegisterThread() // never used: permanently quiescent
			_ = e.d.RegisterThread() // ditto
			reclaimer := e.d.RegisterThread()
			cache := e.pool.NewCache()
			reclaimer.StartOp()
			for i := 0; i < 16; i++ {
				f := e.alloc(reclaimer, cache, int64(i))
				reclaimer.Retire(&f.Header)
			}
			reclaimer.EndOp()
			// Reaching here without the 30s publish-wait panic is the
			// property; also everything must have been freed.
			if reclaimer.StatsSnapshot().Frees == 0 {
				t.Fatal("nothing freed")
			}
		})
	}
}

// TestConcurrentReclaimersNoDeadlock: multiple POP reclaimers pinging
// each other mid-retire must answer each other's pings (handler nesting).
func TestConcurrentReclaimersNoDeadlock(t *testing.T) {
	for _, p := range []core.Policy{core.HazardPtrPOP, core.HazardEraPOP, core.EpochPOP, core.NBR} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 4, &core.Options{ReclaimThreshold: 8, CMult: 2})
			var working, flushed sync.WaitGroup
			flushGo := make(chan struct{})
			for w := 0; w < 4; w++ {
				th := e.d.RegisterThread()
				working.Add(1)
				flushed.Add(1)
				go func(th *core.Thread) {
					defer flushed.Done()
					cache := e.pool.NewCache()
					for i := 0; i < 3000; i++ {
						th.StartOp()
						n := e.alloc(th, cache, int64(i))
						th.Retire(&n.Header)
						th.EndOp()
					}
					working.Done()
					<-flushGo // flush only once everyone is quiescent
					th.Flush()
				}(th)
			}
			working.Wait()
			close(flushGo)
			flushed.Wait()
			if u := e.d.Unreclaimed(); u != 0 {
				t.Fatalf("%d unreclaimed after concurrent reclaimers drained", u)
			}
		})
	}
}

// --- NBR specifics ---

// TestNBRReadPhaseRestart: a neutralized read-phase Protect must return
// ok=false exactly once per neutralization.
func TestNBRReadPhaseRestart(t *testing.T) {
	e := newEnv(t, core.NBR, 2, &core.Options{ReclaimThreshold: 4})
	reader := e.d.RegisterThread()
	reclaimer := e.d.RegisterThread()
	cache := e.pool.NewCache()

	reclaimer.StartOp()
	n := e.alloc(reclaimer, cache, 1)
	var cell core.Atomic
	cell.Store(unsafe.Pointer(n))

	reader.StartOp()
	if _, ok := reader.Protect(0, &cell); !ok {
		t.Fatal("spurious restart with no neutralization pending")
	}

	// Reclaimer neutralizes (reader acks via its own goroutine polling).
	release := make(chan struct{})
	done := make(chan struct{})
	restarted := make(chan bool, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-release:
				return
			default:
				if _, ok := reader.Protect(0, &cell); !ok {
					restarted <- true
					reader.EndOp()
					return
				}
				runtime.Gosched()
			}
		}
	}()

	cell.Store(nil)
	reclaimer.Retire(&n.Header)
	for i := 0; i < 8; i++ {
		f := e.alloc(reclaimer, cache, int64(i))
		reclaimer.Retire(&f.Header)
	}
	reclaimer.EndOp()

	select {
	case <-restarted:
	default:
		t.Fatal("reader was never neutralized")
	}
	close(release)
	<-done
	if reader.StatsSnapshot().Restarts == 0 {
		t.Fatal("restart not counted")
	}
	reclaimer.Flush()
}

// TestNBRWritePhasePublishesAndProtects: reservations published at
// EnterWritePhase must survive a concurrent reclamation.
func TestNBRWritePhasePublishes(t *testing.T) {
	e := newEnv(t, core.NBR, 2, &core.Options{ReclaimThreshold: 4})
	writer := e.d.RegisterThread()
	reclaimer := e.d.RegisterThread()
	cache := e.pool.NewCache()

	reclaimer.StartOp()
	n := e.alloc(reclaimer, cache, 42)
	var cell core.Atomic
	cell.Store(unsafe.Pointer(n))

	// Writer protects n and enters its write phase (immune, published).
	writer.StartOp()
	if _, ok := writer.Protect(0, &cell); !ok {
		t.Fatal("unexpected restart")
	}
	if !writer.EnterWritePhase() {
		t.Fatal("unexpected neutralization at write-phase entry")
	}

	// Reclaimer retires n and reclaims; it must not wait on the
	// write-phase writer and must skip n.
	cell.Store(nil)
	reclaimer.Retire(&n.Header)
	for i := 0; i < 8; i++ {
		f := e.alloc(reclaimer, cache, int64(i))
		reclaimer.Retire(&f.Header)
	}
	reclaimer.EndOp()

	if !n.Header.Retired() {
		t.Fatal("write-phase reservation was freed")
	}
	if reclaimer.StatsSnapshot().Frees == 0 {
		t.Fatal("reclaimer freed nothing")
	}
	writer.ExitWritePhase()
	writer.EndOp()
	reclaimer.Flush()
	if n.Header.Retired() {
		t.Fatal("node not freed after writer finished")
	}
}

// --- Crystalline-lite batching ---

func TestCrystallineBatchSealing(t *testing.T) {
	e := newEnv(t, core.Crystalline, 1, &core.Options{ReclaimThreshold: 8, BatchSize: 4})
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	th.StartOp()
	for i := 0; i < 3; i++ {
		n := e.alloc(th, cache, int64(i))
		th.Retire(&n.Header)
	}
	th.EndOp()
	// 3 < BatchSize: nothing sealed, nothing freed.
	if got := th.StatsSnapshot().Frees; got != 0 {
		t.Fatalf("freed %d before a batch sealed", got)
	}
	th.StartOp()
	for i := 0; i < 16; i++ {
		n := e.alloc(th, cache, int64(i))
		th.Retire(&n.Header)
	}
	th.EndOp()
	th.Flush()
	if e.pool.Outstanding() != 0 {
		t.Fatalf("outstanding %d after flush", e.pool.Outstanding())
	}
}

// --- Liveness: bounded garbage for the robust pointer-based schemes ---

// TestBoundedGarbageProperty (paper Property 3): across random workloads,
// a HazardPtrPOP thread's unreclaimed backlog immediately after a
// reclamation pass is at most threshold + N*MaxSlots.
func TestBoundedGarbageProperty(t *testing.T) {
	prop := func(seed uint16) bool {
		const threshold = 16
		e := newEnvQuick(core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: threshold})
		th := e.d.RegisterThread()
		cache := e.pool.NewCache()
		var cell core.Atomic
		for i := 0; i < 300+int(seed%200); i++ {
			th.StartOp()
			n := e.alloc(th, cache, int64(i))
			cell.Store(unsafe.Pointer(n))
			th.Protect(int(uint(seed)+uint(i))%core.MaxSlots, &cell)
			cell.Store(nil)
			th.Retire(&n.Header)
			th.EndOp()
			if th.RetireListLen() > threshold+1*core.MaxSlots {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// newEnvQuick is newEnv without the *testing.T (for quick properties).
func newEnvQuick(policy core.Policy, maxThreads int, opts *core.Options) *env {
	e := &env{pool: arena.NewPool[tnode](nil, nil)}
	e.d = core.NewDomain(policy, maxThreads, opts)
	e.caches = make([]*arena.ThreadCache[tnode], maxThreads)
	e.typ = e.d.RegisterType(func(t *core.Thread, h *core.Header) {
		e.cacheFor(t).Put((*tnode)(unsafe.Pointer(h)))
	})
	return e
}

// TestEpochMonotonicUnderChurn: the global era never decreases while
// many threads advance it.
func TestEpochMonotonicUnderChurn(t *testing.T) {
	e := newEnv(t, core.EBR, 4, &core.Options{ReclaimThreshold: 1 << 20, EpochFreq: 2})
	var wg sync.WaitGroup
	stopped := make(chan struct{})
	go func() {
		last := uint64(0)
		for {
			select {
			case <-stopped:
				return
			default:
				cur := e.d.Epoch()
				if cur < last {
					t.Error("epoch went backwards")
					return
				}
				last = cur
			}
		}
	}()
	for w := 0; w < 4; w++ {
		th := e.d.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				th.StartOp()
				th.EndOp()
			}
		}(th)
	}
	wg.Wait()
	close(stopped)
	if e.d.Epoch() < 1000 {
		t.Fatalf("epoch advanced only to %d", e.d.Epoch())
	}
}

// TestDoubleRetirePanics guards the accounting that every other test
// depends on.
func TestDoubleRetirePanics(t *testing.T) {
	e := newEnv(t, core.NR, 1, nil)
	th := e.d.RegisterThread()
	cache := e.pool.NewCache()
	n := e.alloc(th, cache, 1)
	// NR drains its list instantly but never frees, so the retired flag
	// stays set and a second retire must trip.
	th.Retire(&n.Header)
	defer func() {
		if recover() == nil {
			t.Fatal("double retire did not panic")
		}
	}()
	th.Retire(&n.Header)
}
