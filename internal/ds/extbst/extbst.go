// Package extbst implements the external (leaf-oriented) binary search
// tree of David, Guerraoui and Trigonakis [20] (DGT in the paper's
// plots), in its lock-based "ticket" style: searches descend with no
// synchronization beyond SMR protection; updates lock the one or two
// nodes they change and re-validate the edges before mutating.
//
// Structure: internal nodes route (left subtree < key ≤ right subtree);
// leaves carry the actual set members. Every internal node has exactly
// two children. An insert replaces a leaf with a (router, two leaves)
// triple; a delete unlinks a leaf *and its parent router*, promoting the
// sibling — so updates retire one or two nodes each, giving the SMR layer
// a tree-shaped churn pattern with short reservations (3 slots:
// grandparent, parent, leaf).
//
// # Overwrite strategy: atomic in-place store under the parent lock
//
// Values live in an atomic cell of the leaf; every value write first
// locks the leaf's parent and validates that the parent is alive and
// still points at the leaf — the same validation every structural
// update performs, and the same lock Delete holds when it marks the
// leaf dead. A leaf's value is therefore frozen from the moment it
// dies, which keeps the optimistic read path (Get loads the value after
// an unsynchronized descent) linearizable. Overwrites here retire
// nothing; contrast hmlist/skiplist (replace-node-and-retire) and
// abtree (copy-on-write leaf).
package extbst

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"pop/internal/core"
)

// node is either a router (isLeaf=false) or a leaf. Header first
// (reclamation contract). val is meaningful on leaves only; it is
// written exclusively under the parent's lock with the leaf validated
// live (see the package comment) and frozen once dead is set.
type node struct {
	core.Header
	key    int64
	val    atomic.Uint64
	isLeaf bool
	dead   atomic.Bool // set under lock when unlinked; validates optimism
	mu     sync.Mutex
	left   core.Atomic // routers only
	right  core.Atomic
}

// Tree is an external BST set.
type Tree struct {
	nodes *core.Nodes[node]
	// rootHolder is a permanent pseudo-router whose left child is the
	// real tree (initially the permanent sentinel leaf). It is never
	// locked for deletion and never dies, so every real parent has a
	// grandparent.
	rootHolder *node
	sentinel   *node
}

// New creates an empty tree in domain d.
func New(d *core.Domain) *Tree {
	tr := &Tree{nodes: core.NewNodes(d, func(_ *core.Thread, n *node) { n.dead.Store(false) })}
	tr.sentinel = &node{key: math.MaxInt64, isLeaf: true}
	tr.rootHolder = &node{key: math.MaxInt64}
	tr.rootHolder.left.Raw(unsafe.Pointer(tr.sentinel))
	tr.rootHolder.right.Raw(unsafe.Pointer(tr.sentinel))
	return tr
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (tr *Tree) Outstanding() int64 { return tr.nodes.Outstanding() }

// childCell returns the link of p followed for key.
func childCell(p *node, key int64) *core.Atomic {
	if key < p.key {
		return &p.left
	}
	return &p.right
}

// pos is a search result: l is the leaf reached; p its parent; gp its
// grandparent (rootHolder when p is the first real router). All three
// are protected in the slots recorded.
type pos struct {
	gp, p, l    *node
	sGP, sP, sL int
}

// search descends to the leaf for key, rotating three protection slots.
// ok=false: neutralized (NBR), restart the operation.
func (tr *Tree) search(t *core.Thread, key int64) (pos, bool) {
restart:
	ps := pos{gp: tr.rootHolder, p: tr.rootHolder, sGP: 0, sP: 1, sL: 2}
	raw, ok := t.Protect(ps.sL, &tr.rootHolder.left)
	if !ok {
		return ps, false
	}
	cur := (*node)(raw)
	for !cur.isLeaf {
		ps.gp = ps.p
		ps.p = cur
		raw, ok = t.Protect(ps.sGP, childCell(cur, key)) // recycle old gp slot
		if !ok {
			return ps, false
		}
		// Liveness validation: a dead router's cells are frozen, so the
		// protect's re-read cannot detect a stale edge; checking dead
		// after the protect proves the child was reachable at protect
		// time (required by the hazard-pointer safety argument).
		if cur.dead.Load() {
			goto restart
		}
		ps.sGP, ps.sP, ps.sL = ps.sP, ps.sL, ps.sGP
		cur = (*node)(raw)
	}
	ps.l = cur
	return ps, true
}

// Get returns the value mapped to key. The descent is unsynchronized;
// the value load is safe because the leaf was reachable at protect time
// and values are frozen once a leaf dies.
func (tr *Tree) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		if ps.l.key != key {
			return 0, false
		}
		return ps.l.val.Load(), true
	}
}

// PutIfAbsent maps key to val only if key is absent.
func (tr *Tree) PutIfAbsent(t *core.Thread, key int64, val uint64) bool {
	ok, _, _ := tr.put(t, key, val, false)
	return ok
}

// Put maps key to val, overwriting; returns the previous value.
func (tr *Tree) Put(t *core.Thread, key int64, val uint64) (uint64, bool) {
	_, old, replaced := tr.put(t, key, val, true)
	return old, replaced
}

// put is the shared insert/overwrite path. An overwrite stores into the
// leaf's value cell under the parent's lock after validating the edge —
// the validation that guarantees the leaf is live (a dead leaf always
// has a dead parent or a swung edge; both are set under this lock).
func (tr *Tree) put(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	checkKey(key)
	t.StartOp()
	defer t.EndOp()
	var newLeaf, router *node
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		if ps.l.key == key {
			if !overwrite {
				if newLeaf != nil {
					tr.nodes.Unused(t, newLeaf)
					tr.nodes.Unused(t, router)
				}
				return false, ps.l.val.Load(), true
			}
			if !t.EnterWritePhase() {
				continue
			}
			cell := childCell(ps.p, key)
			ps.p.mu.Lock()
			if ps.p.dead.Load() || cell.Load() != unsafe.Pointer(ps.l) {
				ps.p.mu.Unlock()
				t.ExitWritePhase()
				continue
			}
			old = ps.l.val.Load()
			ps.l.val.Store(val)
			ps.p.mu.Unlock()
			t.ExitWritePhase()
			if newLeaf != nil {
				tr.nodes.Unused(t, newLeaf)
				tr.nodes.Unused(t, router)
			}
			return false, old, true
		}
		if newLeaf == nil {
			newLeaf = tr.nodes.Alloc(t)
			newLeaf.isLeaf = true
			newLeaf.key = key
			newLeaf.dead.Store(false)
			router = tr.nodes.Alloc(t)
			router.isLeaf = false
			router.dead.Store(false)
		}
		newLeaf.val.Store(val)
		// Order the two leaves under the router: left < router.key ≤ right.
		if key < ps.l.key {
			router.key = ps.l.key
			router.left.Raw(unsafe.Pointer(newLeaf))
			router.right.Raw(unsafe.Pointer(ps.l))
		} else {
			router.key = key
			router.left.Raw(unsafe.Pointer(ps.l))
			router.right.Raw(unsafe.Pointer(newLeaf))
		}
		if !t.EnterWritePhase() {
			continue
		}
		cell := childCell(ps.p, key)
		ps.p.mu.Lock()
		if ps.p.dead.Load() || cell.Load() != unsafe.Pointer(ps.l) {
			ps.p.mu.Unlock()
			t.ExitWritePhase()
			continue
		}
		cell.Store(unsafe.Pointer(router))
		ps.p.mu.Unlock()
		t.ExitWritePhase()
		return true, 0, false
	}
}

// Delete removes key and returns the value it removed. Unlinks the leaf
// and its parent router, promoting the sibling subtree.
func (tr *Tree) Delete(t *core.Thread, key int64) (uint64, bool) {
	checkKey(key)
	t.StartOp()
	defer t.EndOp()
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		if ps.l.key != key {
			return 0, false
		}
		if ps.p == tr.rootHolder {
			// Only the sentinel leaf hangs directly off the root holder,
			// and the sentinel never matches a real key.
			panic("extbst: real leaf directly under root holder")
		}
		if !t.EnterWritePhase() {
			continue
		}
		gpCell := childCell(ps.gp, key)
		lCell := childCell(ps.p, key)
		ps.gp.mu.Lock()
		ps.p.mu.Lock()
		if ps.gp.dead.Load() || ps.p.dead.Load() ||
			gpCell.Load() != unsafe.Pointer(ps.p) || lCell.Load() != unsafe.Pointer(ps.l) {
			ps.p.mu.Unlock()
			ps.gp.mu.Unlock()
			t.ExitWritePhase()
			continue
		}
		// Promote the sibling; the router and leaf leave the tree. The
		// value is read under the locks that exclude overwriters, so it
		// is exactly the value at the linearization point.
		old := ps.l.val.Load()
		var sibling unsafe.Pointer
		if lCell == &ps.p.left {
			sibling = ps.p.right.Load()
		} else {
			sibling = ps.p.left.Load()
		}
		gpCell.Store(sibling)
		ps.p.dead.Store(true)
		ps.l.dead.Store(true)
		ps.p.mu.Unlock()
		ps.gp.mu.Unlock()
		t.Retire(&ps.p.Header)
		t.Retire(&ps.l.Header)
		t.ExitWritePhase()
		return old, true
	}
}

// Size counts real leaves. Quiescent use only.
func (tr *Tree) Size(t *core.Thread) int {
	return tr.count((*node)(tr.rootHolder.left.Load()))
}

func (tr *Tree) count(n *node) int {
	if n.isLeaf {
		if n == tr.sentinel {
			return 0
		}
		return 1
	}
	return tr.count((*node)(n.left.Load())) + tr.count((*node)(n.right.Load()))
}

func checkKey(key int64) {
	if key == math.MaxInt64 {
		panic("extbst: key collides with sentinel")
	}
}
