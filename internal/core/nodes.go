package core

import (
	"unsafe"

	"pop/internal/arena"
)

// Local is per-thread-slot state of type S, one per domain slot. A
// slot's state is built by its thread's first Of and kept: when the slot
// is released and leased again, the next tenant inherits it, and the
// lease/release pair is the happens-before edge that makes the hand-over
// safe. Only the thread holding a slot touches that slot's state.
type Local[S any] struct {
	slots []*S
	build func(*Thread) *S
}

// NewLocal returns per-slot state for d's threads; build makes a slot's
// state on its first Of.
func NewLocal[S any](d *Domain, build func(*Thread) *S) Local[S] {
	return Local[S]{slots: make([]*S, d.maxThreads), build: build}
}

// Of returns t's slot state, building it on the slot's first call.
func (l *Local[S]) Of(t *Thread) *S {
	if s := l.slots[t.tid]; s != nil {
		return s
	}
	return l.first(t)
}

// first builds and keeps t's slot state. It is Of's slow path, kept out
// of line so that Of inlines into Nodes.Alloc.
//
//go:noinline
func (l *Local[S]) first(t *Thread) *S {
	s := l.build(t)
	l.slots[t.tid] = s
	return s
}

// Nodes is the managed pool of one node type in one domain, and the one
// place the paper's allocator contract (§5.0.1, mimalloc-style sharded
// frees) is kept: a node a policy frees goes back to the cache of the
// thread that reclaimed it, and that thread's next Alloc reuses it. T
// must embed Header as its first field (the reclamation contract).
type Nodes[T any] struct {
	pool   *arena.Pool[T]
	caches Local[arena.ThreadCache[T]]
	typ    uint8
}

// NewNodes registers T with d and returns its pool. onFree, if non-nil,
// runs on the reclaiming thread each time a policy frees a node, before
// the node returns to that thread's cache.
func NewNodes[T any](d *Domain, onFree func(*Thread, *T)) *Nodes[T] {
	n := &Nodes[T]{pool: arena.NewPool[T](nil, nil)}
	n.caches = NewLocal(d, func(*Thread) *arena.ThreadCache[T] { return n.pool.NewCache() })
	n.typ = d.RegisterType(func(t *Thread, h *Header) {
		v := (*T)(unsafe.Pointer(h))
		if onFree != nil {
			onFree(t, v)
		}
		n.caches.Of(t).Put(v)
	})
	return n
}

// Alloc draws a node from t's cache and stamps its header (OnAlloc).
func (n *Nodes[T]) Alloc(t *Thread) *T {
	v := n.caches.Of(t).Get()
	t.OnAlloc((*Header)(unsafe.Pointer(v)), n.typ)
	return v
}

// Unused returns a node that Alloc drew and the caller never published
// straight to t's cache: no retire, no grace period, no onFree.
func (n *Nodes[T]) Unused(t *Thread, v *T) { n.caches.Of(t).Put(v) }

// AllocDetached draws a node without a thread, for a structure's initial
// nodes built before any thread exists. It takes one slot from the
// pool's shared list, so no thread cache is filled and stranded, and
// stamps BirthEra 0, which predates every reservation (conservative).
func (n *Nodes[T]) AllocDetached() *T {
	v := n.pool.Get()
	h := (*Header)(unsafe.Pointer(v))
	h.Type, h.BirthEra, h.RetireEra = n.typ, 0, 0
	return v
}

// Outstanding reports allocated-but-unfreed nodes, live and retired (the
// memory metric).
func (n *Nodes[T]) Outstanding() int64 { return n.pool.Outstanding() }
