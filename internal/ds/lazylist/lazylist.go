// Package lazylist implements the lazy list of Heller et al. [31]
// (LL in the paper's plots): a sorted linked-list map with wait-free
// unsynchronized traversals, per-node locks for updates, and a marked
// flag for logical deletion.
//
// Where the Harris-Michael list helps unlink during traversal, the lazy
// list's readers are pure: Contains/Get walk the list with no writes at
// all, validating only the final node. Updates lock pred and curr,
// validate that both are unmarked and still adjacent, and then mutate.
// This gives the paper a second list with a very different reader/writer
// balance: traversal cost is dominated purely by the SMR read protocol.
//
// # Overwrite strategy: atomic in-place store under the node lock
//
// Values live in an atomic cell mutated only while holding the node's
// lock with the node validated unmarked. Deletion marks the node under
// that same lock, so an overwrite can never race a deletion of the same
// node: a node's value is frozen from the moment it is marked. Readers
// load the value optimistically after the unmarked check; the value they
// see is either the current one or one that was current at some instant
// between the check and the load, which is exactly the lazy list's usual
// linearization argument extended to the value plane. Unlike the
// lock-free structures, overwrites here retire nothing.
package lazylist

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
)

// node is a list cell. Header must be first (reclamation contract).
// val is written only under mu with marked validated false, and frozen
// once marked is set.
type node struct {
	core.Header
	key    int64
	val    atomic.Uint64
	marked core.Flag // logical deletion mark (distinct from link tags)
	mu     sync.Mutex
	next   core.Atomic
}

// List is a lazy-list map.
type List struct {
	d     *core.Domain
	typ   uint8
	pool  *arena.Pool[node]
	cache []*arena.ThreadCache[node]
	head  *node
	tail  *node
}

// New creates an empty lazy list in domain d.
func New(d *core.Domain) *List {
	l := &List{
		d:     d,
		pool:  arena.NewPool[node](nil, nil),
		cache: make([]*arena.ThreadCache[node], d.MaxThreads()),
	}
	l.typ = d.RegisterType(func(t *core.Thread, h *core.Header) {
		n := (*node)(unsafe.Pointer(h))
		n.marked.Store(false)
		l.cacheFor(t).Put(n)
	})
	l.head = &node{key: math.MinInt64}
	l.tail = &node{key: math.MaxInt64}
	l.head.next.Raw(unsafe.Pointer(l.tail))
	return l
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (l *List) Outstanding() int64 { return l.pool.Outstanding() }

func (l *List) cacheFor(t *core.Thread) *arena.ThreadCache[node] {
	c := l.cache[t.ID()]
	if c == nil {
		c = l.pool.NewCache()
		l.cache[t.ID()] = c
	}
	return c
}

const (
	slotPred = 0
	slotCurr = 1
)

// search walks to the first node with key >= key. Slots rotate between
// the two roles so advancing does not re-publish. ok=false: neutralized.
func (l *List) search(t *core.Thread, key int64) (pred, curr *node, sPred, sCurr int, ok bool) {
restart:
	pred = l.head
	sPred, sCurr = slotPred, slotCurr
	raw, okp := t.Protect(sCurr, &pred.next)
	if !okp {
		return nil, nil, 0, 0, false
	}
	curr = (*node)(raw)
	for curr.key < key {
		nraw, okp := t.Protect(sPred, &curr.next) // old pred slot becomes next's
		if !okp {
			return nil, nil, 0, 0, false
		}
		// Liveness validation: an unlinked node is marked before its
		// next pointer freezes, so restarting on a marked curr (checked
		// *after* protecting the successor) guarantees the successor was
		// reachable at protect time. The textbook lazy list traverses
		// marked nodes freely, but that is only safe under garbage
		// collection or epochs; under pointer-based reclamation the
		// traversal must not cross frozen links.
		if curr.marked.Load() {
			goto restart
		}
		pred = curr
		curr = (*node)(nraw)
		sPred, sCurr = sCurr, sPred
	}
	return pred, curr, sPred, sCurr, true
}

// Get returns the value mapped to key. The read is wait-free: the value
// load happens after the unmarked check, and values are frozen once a
// node is marked (see the package comment).
func (l *List) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	for {
		_, curr, _, _, ok := l.search(t, key)
		if !ok {
			continue
		}
		if curr.key != key || curr.marked.Load() {
			return 0, false
		}
		return curr.val.Load(), true
	}
}

// validate re-checks, under locks, that pred and curr are both unmarked
// and adjacent — the lazy list's linearization guard.
func (l *List) validate(pred, curr *node) bool {
	return !pred.marked.Load() && !curr.marked.Load() &&
		l.nextOf(pred) == curr
}

func (l *List) nextOf(n *node) *node { return (*node)(n.next.Load()) }

// PutIfAbsent maps key to val only if key is absent.
func (l *List) PutIfAbsent(t *core.Thread, key int64, val uint64) bool {
	ok, _, _ := l.put(t, key, val, false)
	return ok
}

// Put maps key to val, overwriting; returns the previous value.
func (l *List) Put(t *core.Thread, key int64, val uint64) (uint64, bool) {
	_, old, replaced := l.put(t, key, val, true)
	return old, replaced
}

// put is the shared insert/overwrite path. Overwrites store in place
// under curr's lock with curr validated unmarked — deletion takes the
// same lock before marking, so the store cannot land in a dead node.
func (l *List) put(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	checkKey(key)
	t.StartOp()
	defer t.EndOp()
	cache := l.cacheFor(t)
	var n *node
	for {
		pred, curr, _, _, ok := l.search(t, key)
		if !ok {
			continue
		}
		if curr.key == key && !curr.marked.Load() {
			if !overwrite {
				if n != nil {
					cache.Put(n) // never published
				}
				return false, curr.val.Load(), true
			}
			if !t.EnterWritePhase() {
				continue
			}
			curr.mu.Lock()
			if curr.marked.Load() {
				curr.mu.Unlock()
				t.ExitWritePhase()
				continue // deleted under us: re-search (may re-insert)
			}
			old = curr.val.Load()
			curr.val.Store(val)
			curr.mu.Unlock()
			t.ExitWritePhase()
			if n != nil {
				cache.Put(n)
			}
			return false, old, true
		}
		// Write phase: reservations for pred/curr are already in slots.
		if !t.EnterWritePhase() {
			continue
		}
		pred.mu.Lock()
		curr.mu.Lock()
		if !l.validate(pred, curr) {
			curr.mu.Unlock()
			pred.mu.Unlock()
			t.ExitWritePhase()
			continue
		}
		if curr.key == key {
			// An unmarked duplicate appeared (or curr was the match all
			// along and a racing delete lost). Both locks are held and
			// curr validated live, so an overwrite can finish in place.
			old = curr.val.Load()
			if overwrite {
				curr.val.Store(val)
			}
			curr.mu.Unlock()
			pred.mu.Unlock()
			t.ExitWritePhase()
			if n != nil {
				cache.Put(n)
			}
			return false, old, true
		}
		if n == nil {
			n = cache.Get()
			n.key = key
			n.marked.Store(false)
			t.OnAlloc(&n.Header, l.typ)
		}
		n.val.Store(val)
		n.next.Raw(unsafe.Pointer(curr))
		pred.next.Store(unsafe.Pointer(n))
		curr.mu.Unlock()
		pred.mu.Unlock()
		t.ExitWritePhase()
		return true, 0, false
	}
}

// Delete removes key and returns the value it removed.
func (l *List) Delete(t *core.Thread, key int64) (uint64, bool) {
	checkKey(key)
	t.StartOp()
	defer t.EndOp()
	for {
		pred, curr, _, _, ok := l.search(t, key)
		if !ok {
			continue
		}
		if curr.key != key || curr.marked.Load() {
			return 0, false
		}
		if !t.EnterWritePhase() {
			continue
		}
		pred.mu.Lock()
		curr.mu.Lock()
		if !l.validate(pred, curr) || curr.key != key {
			curr.mu.Unlock()
			pred.mu.Unlock()
			t.ExitWritePhase()
			continue
		}
		old := curr.val.Load()           // value at the linearization point
		curr.marked.Store(true)          // logical delete (linearization point)
		pred.next.Store(l.rawNext(curr)) // physical unlink
		curr.mu.Unlock()
		pred.mu.Unlock()
		t.Retire(&curr.Header)
		t.ExitWritePhase()
		return old, true
	}
}

func (l *List) rawNext(n *node) unsafe.Pointer { return n.next.Load() }

// Size counts unmarked nodes. Quiescent use only.
func (l *List) Size(t *core.Thread) int {
	n := 0
	for c := l.nextOf(l.head); c != l.tail; c = l.nextOf(c) {
		if !c.marked.Load() {
			n++
		}
	}
	return n
}

func checkKey(key int64) {
	if key == math.MinInt64 || key == math.MaxInt64 {
		panic("lazylist: key collides with sentinel")
	}
}
