package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
)

// tnode is a minimal managed node for core-level tests. Header first, by
// the package contract.
type tnode struct {
	core.Header
	val  int64
	next core.Atomic
}

// env bundles a domain, a pool, and the registered type id.
type env struct {
	d      *core.Domain
	pool   *arena.Pool[tnode]
	caches []*arena.ThreadCache[tnode] // indexed by thread id (owner-only)
	typ    uint8
}

// cacheFor returns t's free-side cache (same sharded-free discipline the
// real data structures use).
func (e *env) cacheFor(t *core.Thread) *arena.ThreadCache[tnode] {
	c := e.caches[t.ID()]
	if c == nil {
		c = e.pool.NewCache()
		e.caches[t.ID()] = c
	}
	return c
}

func newEnv(t *testing.T, policy core.Policy, maxThreads int, opts *core.Options) *env {
	t.Helper()
	return newEnvOn(core.NewDomain(policy, maxThreads, opts))
}

// newEnvOn builds the env over an existing domain (a group's member).
func newEnvOn(d *core.Domain) *env {
	e := &env{d: d, pool: arena.NewPool[tnode](nil, nil)}
	e.caches = make([]*arena.ThreadCache[tnode], d.MaxThreads())
	e.typ = d.RegisterType(func(t *core.Thread, h *core.Header) {
		e.cacheFor(t).Put((*tnode)(unsafe.Pointer(h)))
	})
	return e
}

func (e *env) alloc(t *core.Thread, cache *arena.ThreadCache[tnode], v int64) *tnode {
	n := cache.Get()
	n.val = v
	n.next.Raw(nil)
	t.OnAlloc(&n.Header, e.typ)
	return n
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, p := range core.Policies() {
		got, err := core.ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	}
	if _, err := core.ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

func TestMaskAndMark(t *testing.T) {
	var n tnode
	p := unsafe.Pointer(&n)
	if core.Marked(p) {
		t.Fatal("fresh pointer reads as marked")
	}
	m := core.WithMark(p)
	if !core.Marked(m) {
		t.Fatal("WithMark lost the mark")
	}
	if core.Mask(m) != p {
		t.Fatal("Mask did not recover the pointer")
	}
	if core.Mask(nil) != nil {
		t.Fatal("Mask(nil) != nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithMark(nil) did not panic")
			}
		}()
		core.WithMark(nil)
	}()
}

// TestBasicReclaimCycle exercises alloc → publish → retire → reclaim →
// free for every policy, verifying that unreserved nodes are eventually
// freed and the pool recycles them.
func TestBasicReclaimCycle(t *testing.T) {
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			opts := &core.Options{ReclaimThreshold: 8, EpochFreq: 2, BatchSize: 4}
			e := newEnv(t, p, 2, opts)
			th := e.d.RegisterThread()
			cache := e.pool.NewCache()

			var cell core.Atomic
			const rounds = 100
			for i := 0; i < rounds; i++ {
				th.StartOp()
				n := e.alloc(th, cache, int64(i))
				cell.Store(unsafe.Pointer(n))
				got, ok := th.Protect(0, &cell)
				if !ok {
					t.Fatal("Protect returned restart outside NBR neutralization")
				}
				if got != unsafe.Pointer(n) {
					t.Fatalf("Protect read %p want %p", got, n)
				}
				// Unlink and retire.
				cell.Store(nil)
				th.Retire(&n.Header)
				th.EndOp()
			}
			th.Flush()

			st := e.d.Stats()
			if st.Retires != rounds && p != core.NR {
				t.Fatalf("retires = %d, want %d", st.Retires, rounds)
			}
			if p == core.NR {
				if st.Frees != 0 {
					t.Fatalf("NR freed %d nodes", st.Frees)
				}
				if e.d.Unreclaimed() != rounds {
					t.Fatalf("NR unreclaimed = %d, want %d", e.d.Unreclaimed(), rounds)
				}
				return
			}
			if st.Frees == 0 {
				t.Fatal("no nodes were freed")
			}
			if got := e.d.Unreclaimed(); got != rounds-int64(st.Frees) {
				t.Fatalf("Unreclaimed = %d, want %d", got, rounds-int64(st.Frees))
			}
			// After a quiescent flush every policy except NR should have
			// drained everything: no reservations remain.
			if e.d.Unreclaimed() != 0 {
				t.Fatalf("flush left %d unreclaimed nodes", e.d.Unreclaimed())
			}
			if e.pool.Outstanding() != 0 {
				t.Fatalf("pool outstanding = %d after flush", e.pool.Outstanding())
			}
		})
	}
}

// TestReservedNodeNotFreed pins a node via a second thread's reservation
// and checks that reclamation skips it while freeing everything else.
func TestReservedNodeNotFreed(t *testing.T) {
	for _, p := range core.Policies() {
		if p == core.NR || p == core.EBR || p == core.EpochPOP ||
			p == core.IBR || p == core.Crystalline || p == core.NBR {
			// Era/epoch policies protect by epoch, not identity; NBR
			// restarts the reader instead. Covered by their own tests.
			continue
		}
		p := p
		t.Run(p.String(), func(t *testing.T) {
			opts := &core.Options{ReclaimThreshold: 4}
			e := newEnv(t, p, 2, opts)
			reader := e.d.RegisterThread()
			reclaimer := e.d.RegisterThread()
			rcache := e.pool.NewCache()

			reclaimer.StartOp()
			pinned := e.alloc(reclaimer, rcache, 42)
			var cell core.Atomic
			cell.Store(unsafe.Pointer(pinned))

			// The reader protects the node on its own goroutine, then
			// stays inside its operation answering pings (a "busy"
			// thread) until released.
			readerReady := make(chan struct{})
			release := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				reader.StartOp()
				if got, _ := reader.Protect(0, &cell); got != unsafe.Pointer(pinned) {
					t.Error("reader failed to protect")
				}
				close(readerReady)
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
			<-readerReady

			// Unlink, retire the pinned node plus filler to cross the
			// reclamation threshold.
			cell.Store(nil)
			reclaimer.Retire(&pinned.Header)
			for i := 0; i < 8; i++ {
				filler := e.alloc(reclaimer, rcache, int64(i))
				reclaimer.Retire(&filler.Header)
			}
			reclaimer.EndOp()

			if !pinned.Header.Retired() {
				t.Fatal("pinned node was freed while reserved")
			}
			if reclaimer.StatsSnapshot().Frees == 0 {
				t.Fatal("reclaimer freed nothing at all")
			}

			// Release the reservation; the next reclamation frees it.
			close(release)
			<-readerDone
			reclaimer.Flush()
			if pinned.Header.Retired() {
				t.Fatal("pinned node not freed after release")
			}
		})
	}
}
