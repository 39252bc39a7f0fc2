// Package abtree implements a concurrent leaf-oriented (a,b)-tree
// (ABT in the paper's plots; after Brown [13]).
//
// Substitution: Brown's original is lock-free via
// LLX/SCX multi-word primitives that Go cannot express without a full
// software LL/SC layer. This implementation keeps the *reclamation-
// relevant* behaviour — copy-on-write node replacement, multi-node
// retirement per structural operation, wide shallow traversals with a
// handful of protection slots — and replaces LLX/SCX with the same
// optimistic-traversal/lock-and-validate discipline the benchmark's
// other tree (extbst) uses:
//
//   - Searches descend without locks, protecting grandparent/parent/child
//     in three rotating reservation slots.
//   - Leaf updates copy the leaf (immutable key arrays), lock the parent,
//     validate the edge and the parent's liveness, swing one child
//     pointer, and retire the old leaf.
//   - Leaf splits and empty-leaf excisions rebuild the parent node
//     (immutable separator array) under parent+grandparent locks and
//     retire the replaced nodes.
//   - Overfull internal nodes (they may exceed b transiently, because a
//     split adds a child to the parent without splitting it in the same
//     step) are repaired by the next traversal that passes through:
//     "relaxed" rebalancing in the style of relaxed (a,b)-trees.
//
// # Range scans (ds.RangeScanner)
//
// The tree is the repository's second range-capable structure, with a
// reservation shape opposite to the skiplist's: instead of a Protect
// chain that pins one reservation per node along the bottom level, a
// scan protects whole leaves — each validated descent pins the leaf and
// its ancestors in three rotating slots, emits up to B keys from the
// leaf's immutable key array, and re-descends to the leaf's exclusive
// upper bound (the minimum right-hand separator on the path; leaves
// carry no sibling links). Validation is the leaf's dead flag read
// after the protecting descent: !dead proves the leaf was live — its
// snapshot current for its whole interval — at that instant. A failed
// validation or an NBR neutralization re-descends to the first key not
// yet emitted, so results stay sorted and duplicate-free without
// restarting the scan. See Scan for the safety argument.
//
// The min-degree bound a is maintained lazily: leaves shrink until empty
// and are then excised together with their separator (an (a,b)-tree with
// a enforced by excision rather than merging). The paper's experiments
// measure SMR behaviour — throughput under traversal-protection cost and
// retire-list churn — and both are preserved: every update retires 1-3
// nodes through the same Retire path as the original.
//
// # Overwrite strategy: copy-on-write leaf replacement
//
// Leaves are immutable once published — the range-scan safety argument
// depends on a protected leaf being a consistent snapshot — so values
// are stored in an immutable array parallel to the keys, and Put on a
// present key copies the leaf with one value slot changed, swings the
// parent's child pointer under the parent's lock, and retires the old
// leaf. This is the same CoW shape as every other (a,b)-tree update and
// makes overwrites a second source of retirements: value churn alone
// feeds the reclamation layer with whole leaves (contrast extbst's
// in-place store, which retires nothing). The returned old value is
// read from the immutable old leaf, so it is exactly the value the
// overwrite replaced.
//
// # Values that own memory
//
// New's freeVal hook, if non-nil, frees a value with the leaf whose
// copy-on-write dropped it. Every leaf update copies the surviving
// values into its replacement, so a published value stays in exactly
// one live leaf until an overwrite or delete of its key leaves it out.
// That update marks the leaf it retires with the value's index
// (node.drop), and the pool runs freeVal on the value when the policy
// frees the leaf, so no earlier than any reader that could have loaded
// it from a leaf has ended its operation. Inserts and splits mark
// nothing, and a copy-on-write that loses its validation returns its
// copy through Nodes.Unused, which runs no hook, so each dropped value
// is freed exactly once and no live value is freed. A value a call did
// not publish (a PutIfAbsent on a present key) stays the caller's.
package abtree

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"pop/internal/core"
)

const (
	// B is the split threshold: leaves split above B keys, internals are
	// repaired above B+1 children.
	B = 12
	// maxKeys/maxKids size the node arrays. Internals may transiently
	// exceed B+1 children while repairs lag; the hard cap is generous
	// enough that a repair always runs first (each traversal repairs).
	maxKeys = 3 * B
	maxKids = 3*B + 1
)

// node is a tree node. Header first (reclamation contract). keys and
// vals (and, for internal nodes, the key/child counts) are immutable
// once the node is published; only the kids cells are mutated in place
// (child swings under the node's lock). vals parallels keys on leaves
// and is unused on internal nodes. drop is 1 + the index of the value a
// retired leaf's copy-on-write dropped, 0 for none; it is set under the
// parent's lock by the one update that retires the leaf and cleared when
// the leaf is freed, so a drawn node always reads 0.
type node struct {
	core.Header
	leaf  bool
	drop  uint8
	dead  atomic.Bool
	mu    sync.Mutex
	nkeys int
	keys  [maxKeys]int64
	vals  [maxKeys]uint64
	kids  [maxKids]core.Atomic // internal: nkeys+1 children
}

// nkids returns the child count of an internal node.
func (n *node) nkids() int { return n.nkeys + 1 }

// route returns the child index followed for key: the first separator
// greater than key. (entry has nkeys == 0, so routing yields index 0.)
func (n *node) route(key int64) int {
	i := sort.Search(n.nkeys, func(i int) bool { return key < n.keys[i] })
	return i
}

// findKey returns the position of key in a leaf, or (-1, false).
func (n *node) findKey(key int64) (int, bool) {
	i := sort.Search(n.nkeys, func(i int) bool { return n.keys[i] >= key })
	if i < n.nkeys && n.keys[i] == key {
		return i, true
	}
	return -1, false
}

// Tree is a concurrent (a,b)-tree set.
type Tree struct {
	nodes *core.Nodes[node]
	// entry is a permanent pseudo-internal node with zero separators and
	// a single child cell holding the real root. It is never dead, which
	// uniformizes every structural operation: the root's parent always
	// exists and always validates.
	entry *node
}

// New creates an empty tree in domain d. freeVal, if non-nil, frees a
// value when the policy frees the leaf whose update dropped it (see
// "Values that own memory" in the package comment).
func New(d *core.Domain, freeVal func(*core.Thread, uint64)) *Tree {
	tr := &Tree{
		nodes: core.NewNodes(d, func(t *core.Thread, n *node) {
			n.dead.Store(false)
			if n.drop != 0 && freeVal != nil {
				freeVal(t, n.vals[n.drop-1])
			}
			n.drop = 0
		}),
		entry: &node{},
	}
	// The initial root leaf is pool-managed (unlike the permanent entry)
	// because the first insert will copy-on-write and retire it. No
	// thread exists yet, so it is a thread-less draw.
	root := tr.nodes.AllocDetached()
	root.leaf = true
	root.nkeys = 0
	root.dead.Store(false)
	tr.entry.kids[0].Raw(unsafe.Pointer(root))
	return tr
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (tr *Tree) Outstanding() int64 { return tr.nodes.Outstanding() }

// pos is a completed descent: l is the leaf; p its parent; gp its
// grandparent (entry when shallow). All protected in rotating slots.
// bound is the exclusive upper limit of l's key space — the minimum
// right-hand separator passed on the way down (math.MaxInt64 on the
// rightmost spine). Range scans use it to resume at the next leaf.
type pos struct {
	gp, p, l *node
	bound    int64
}

// search descends to the leaf covering key. On the way it repairs any
// overfull internal node it passes (split propagation). ok=false:
// neutralized (NBR) — restart the operation.
func (tr *Tree) search(t *core.Thread, key int64) (pos, bool) {
	for {
		gp, p := tr.entry, tr.entry
		sGP, sP, sL := 0, 1, 2
		bound := int64(math.MaxInt64)
		raw, ok := t.Protect(sL, &tr.entry.kids[0])
		if !ok {
			return pos{}, false
		}
		cur := (*node)(raw)
		restart := false
		for !cur.leaf {
			if cur.nkids() > B+1 {
				// Overfull internal: repair, then restart the descent.
				if !tr.repairSplit(t, gp, p, cur) {
					return pos{}, false
				}
				restart = true
				break
			}
			gp = p
			p = cur
			idx := cur.route(key)
			if idx < cur.nkeys && cur.keys[idx] < bound {
				bound = cur.keys[idx]
			}
			raw, ok = t.Protect(sGP, &cur.kids[idx])
			if !ok {
				return pos{}, false
			}
			// Liveness validation: a dead node's child cells are frozen,
			// so Protect's re-read check cannot detect that the edge is
			// stale. Checking dead *after* the protect guarantees the
			// child was reachable at protect time — the reachability the
			// hazard-pointer safety argument requires. (The sorted lists
			// get this for free from their mark bits; the trees must
			// check explicitly.)
			if cur.dead.Load() {
				restart = true
				break
			}
			sGP, sP, sL = sP, sL, sGP
			cur = (*node)(raw)
		}
		if restart {
			continue
		}
		return pos{gp: gp, p: p, l: cur, bound: bound}, true
	}
}

// Get returns the value mapped to key. The leaf is protected and
// immutable, so plain reads of its arrays are a consistent snapshot.
func (tr *Tree) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return tr.GetInOp(t, key)
}

// GetInOp is Get inside an operation the caller already opened (the
// ds.InOp contract); an NBR neutralization re-descends for this key only.
func (tr *Tree) GetInOp(t *core.Thread, key int64) (uint64, bool) {
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		i, found := ps.l.findKey(key)
		if !found {
			return 0, false
		}
		return ps.l.vals[i], true
	}
}

// newLeaf builds an unpublished leaf from parallel key/value slices.
func (tr *Tree) newLeaf(t *core.Thread, keys []int64, vals []uint64) *node {
	n := tr.nodes.Alloc(t)
	n.leaf = true
	n.dead.Store(false)
	n.nkeys = len(keys)
	copy(n.keys[:], keys)
	copy(n.vals[:], vals)
	return n
}

// newInternal builds an unpublished internal node; kids are raw child
// pointers.
func (tr *Tree) newInternal(t *core.Thread, keys []int64, kids []unsafe.Pointer) *node {
	n := tr.nodes.Alloc(t)
	n.leaf = false
	n.dead.Store(false)
	n.nkeys = len(keys)
	copy(n.keys[:], keys)
	for i, k := range kids {
		n.kids[i].Raw(k)
	}
	return n
}

// PutIfAbsent maps key to val only if key is absent.
func (tr *Tree) PutIfAbsent(t *core.Thread, key int64, val uint64) bool {
	t.StartOp()
	defer t.EndOp()
	ok, _, _ := tr.put(t, key, val, false)
	return ok
}

// Put maps key to val, overwriting; returns the previous value.
func (tr *Tree) Put(t *core.Thread, key int64, val uint64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return tr.PutInOp(t, key, val)
}

// PutInOp is Put inside an operation the caller already opened (the
// ds.InOp contract). Its NBR write phases open and close inside that
// operation, and a neutralization retries this key only.
func (tr *Tree) PutInOp(t *core.Thread, key int64, val uint64) (uint64, bool) {
	_, old, replaced := tr.put(t, key, val, true)
	return old, replaced
}

// put is the shared insert/overwrite body, run inside the caller's
// operation. An overwrite copies the leaf with one value slot changed
// and retires the original (see the package comment); the old value is
// read from the immutable old leaf.
func (tr *Tree) put(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	checkKey(key)
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		if i, found := ps.l.findKey(key); found {
			// Read the old value before the CoW retires the leaf: the
			// leaf is immutable, so this is exactly the replaced value.
			old = ps.l.vals[i]
			if !overwrite {
				return false, old, true
			}
			if tr.overwriteCoW(t, ps, key, i, val) {
				return false, old, true
			}
			continue
		}
		if ps.l.nkeys < B {
			if tr.insertCoW(t, ps, key, val) {
				return true, 0, false
			}
			continue
		}
		done, ok2 := tr.insertSplit(t, ps, key, val)
		if !ok2 {
			continue // neutralized during write phase entry
		}
		if done {
			return true, 0, false
		}
	}
}

// overwriteCoW replaces the leaf with a copy whose i-th value is val.
func (tr *Tree) overwriteCoW(t *core.Thread, ps pos, key int64, i int, val uint64) bool {
	nl := tr.newLeaf(t, ps.l.keys[:ps.l.nkeys], ps.l.vals[:ps.l.nkeys])
	nl.vals[i] = val
	return tr.swapLeaf(t, ps, key, nl, uint8(i+1))
}

// insertCoW replaces the leaf with a copy containing key (no split).
func (tr *Tree) insertCoW(t *core.Thread, ps pos, key int64, val uint64) bool {
	mk, mv := mergeKV(ps.l, key, val)
	return tr.swapLeaf(t, ps, key, tr.newLeaf(t, mk, mv), 0)
}

// swapLeaf swings the unpublished leaf nl into ps.l's place under the
// parent's lock, with the edge and the parent's liveness validated, and
// retires ps.l marked with drop (node.drop: the value nl left out).
// On a failed validation or an NBR neutralization nl goes back to the
// cache unpublished and the caller re-descends.
func (tr *Tree) swapLeaf(t *core.Thread, ps pos, key int64, nl *node, drop uint8) bool {
	if !t.EnterWritePhase() {
		tr.nodes.Unused(t, nl)
		return false
	}
	cell := &ps.p.kids[ps.p.route(key)]
	ps.p.mu.Lock()
	if (ps.p != tr.entry && ps.p.dead.Load()) || cell.Load() != unsafe.Pointer(ps.l) {
		ps.p.mu.Unlock()
		t.ExitWritePhase()
		tr.nodes.Unused(t, nl)
		return false
	}
	cell.Store(unsafe.Pointer(nl))
	ps.l.drop = drop
	ps.l.dead.Store(true)
	ps.p.mu.Unlock()
	t.Retire(&ps.l.Header)
	t.ExitWritePhase()
	return true
}

// insertSplit splits a full leaf into two and adds the separator to the
// parent (rebuilt copy-on-write), or grows a new root when the parent is
// the entry. Returns (done, !neutralized).
func (tr *Tree) insertSplit(t *core.Thread, ps pos, key int64, val uint64) (bool, bool) {
	mk, mv := mergeKV(ps.l, key, val)
	h := len(mk) / 2
	l1 := tr.newLeaf(t, mk[:h], mv[:h])
	l2 := tr.newLeaf(t, mk[h:], mv[h:])
	sep := mk[h]
	giveUp := func() {
		tr.nodes.Unused(t, l1)
		tr.nodes.Unused(t, l2)
	}
	if !t.EnterWritePhase() {
		giveUp()
		return false, false
	}
	if ps.p == tr.entry {
		// Root leaf split: new root internal above the two halves.
		newRoot := tr.newInternal(t, []int64{sep},
			[]unsafe.Pointer{unsafe.Pointer(l1), unsafe.Pointer(l2)})
		cell := &tr.entry.kids[0]
		tr.entry.mu.Lock()
		if cell.Load() != unsafe.Pointer(ps.l) {
			tr.entry.mu.Unlock()
			t.ExitWritePhase()
			tr.nodes.Unused(t, newRoot)
			giveUp()
			return false, true
		}
		cell.Store(unsafe.Pointer(newRoot))
		ps.l.dead.Store(true)
		tr.entry.mu.Unlock()
		t.Retire(&ps.l.Header)
		t.ExitWritePhase()
		return true, true
	}

	gpCell := &ps.gp.kids[ps.gp.route(key)]
	pCell := &ps.p.kids[ps.p.route(key)]
	ps.gp.mu.Lock()
	ps.p.mu.Lock()
	if (ps.gp != tr.entry && ps.gp.dead.Load()) || ps.p.dead.Load() ||
		gpCell.Load() != unsafe.Pointer(ps.p) || pCell.Load() != unsafe.Pointer(ps.l) {
		ps.p.mu.Unlock()
		ps.gp.mu.Unlock()
		t.ExitWritePhase()
		giveUp()
		return false, true
	}
	// Rebuild the parent with l replaced by (l1, sep, l2). The parent is
	// locked, so snapshotting its child cells is stable.
	idx := ps.p.route(key)
	keys := make([]int64, 0, ps.p.nkeys+1)
	kids := make([]unsafe.Pointer, 0, ps.p.nkids()+1)
	for i := 0; i < ps.p.nkids(); i++ {
		if i == idx {
			kids = append(kids, unsafe.Pointer(l1), unsafe.Pointer(l2))
		} else {
			kids = append(kids, ps.p.kids[i].Load())
		}
	}
	for i := 0; i < ps.p.nkeys; i++ {
		if i == idx {
			keys = append(keys, sep)
		}
		keys = append(keys, ps.p.keys[i])
	}
	if idx == ps.p.nkeys {
		keys = append(keys, sep)
	}
	np := tr.newInternal(t, keys, kids)
	gpCell.Store(unsafe.Pointer(np))
	ps.p.dead.Store(true)
	ps.l.dead.Store(true)
	ps.p.mu.Unlock()
	ps.gp.mu.Unlock()
	t.Retire(&ps.p.Header)
	t.Retire(&ps.l.Header)
	t.ExitWritePhase()
	return true, true
}

// repairSplit splits the overfull internal node cur, rebuilding its
// parent (or growing a new root). gp/p/cur are protected by the caller.
// Returns false only when neutralized.
func (tr *Tree) repairSplit(t *core.Thread, gp, p, cur *node) bool {
	if !t.EnterWritePhase() {
		return false
	}
	key := cur.keys[0] // any key routed through cur locates the cells
	gpCell := &gp.kids[gp.route(key)]
	pCell := &p.kids[p.route(key)]
	gp.mu.Lock()
	if gp != p {
		p.mu.Lock()
	}
	cur.mu.Lock()
	valid := (gp == tr.entry || !gp.dead.Load()) &&
		(p == tr.entry || !p.dead.Load()) && !cur.dead.Load() &&
		pCell.Load() == unsafe.Pointer(cur) && cur.nkids() > B+1
	if p != tr.entry {
		valid = valid && gpCell.Load() == unsafe.Pointer(p)
	}
	if !valid {
		cur.mu.Unlock()
		if gp != p {
			p.mu.Unlock()
		}
		gp.mu.Unlock()
		t.ExitWritePhase()
		return true // state changed under us; descent restarts anyway
	}

	// Split cur's children in half around a median separator.
	n := cur.nkids()
	h := n / 2
	kidsAll := make([]unsafe.Pointer, n)
	for i := 0; i < n; i++ {
		kidsAll[i] = cur.kids[i].Load()
	}
	c1 := tr.newInternal(t, append([]int64(nil), cur.keys[:h-1]...), kidsAll[:h])
	c2 := tr.newInternal(t, append([]int64(nil), cur.keys[h:cur.nkeys]...), kidsAll[h:])
	sep := cur.keys[h-1]

	if p == tr.entry {
		// cur is the root: grow a new root.
		newRoot := tr.newInternal(t, []int64{sep},
			[]unsafe.Pointer{unsafe.Pointer(c1), unsafe.Pointer(c2)})
		pCell.Store(unsafe.Pointer(newRoot))
		cur.dead.Store(true)
		cur.mu.Unlock()
		gp.mu.Unlock()
		t.Retire(&cur.Header)
		t.ExitWritePhase()
		return true
	}

	// Rebuild p with cur replaced by (c1, sep, c2).
	idx := p.route(key)
	keys := make([]int64, 0, p.nkeys+1)
	kids := make([]unsafe.Pointer, 0, p.nkids()+1)
	for i := 0; i < p.nkids(); i++ {
		if i == idx {
			kids = append(kids, unsafe.Pointer(c1), unsafe.Pointer(c2))
		} else {
			kids = append(kids, p.kids[i].Load())
		}
	}
	for i := 0; i < p.nkeys; i++ {
		if i == idx {
			keys = append(keys, sep)
		}
		keys = append(keys, p.keys[i])
	}
	if idx == p.nkeys {
		keys = append(keys, sep)
	}
	np := tr.newInternal(t, keys, kids)
	gpCell.Store(unsafe.Pointer(np))
	p.dead.Store(true)
	cur.dead.Store(true)
	cur.mu.Unlock()
	p.mu.Unlock()
	gp.mu.Unlock()
	t.Retire(&p.Header)
	t.Retire(&cur.Header)
	t.ExitWritePhase()
	return true
}

// Delete removes key and returns the value it removed. An emptied leaf
// is excised together with its separator; a parent reduced to a single
// child is replaced by that child.
func (tr *Tree) Delete(t *core.Thread, key int64) (uint64, bool) {
	checkKey(key)
	t.StartOp()
	defer t.EndOp()
	for {
		ps, ok := tr.search(t, key)
		if !ok {
			continue
		}
		i, found := ps.l.findKey(key)
		if !found {
			return 0, false
		}
		// The old leaf is immutable and protected; its value array still
		// holds the removed value after the CoW below retires it.
		old := ps.l.vals[i]
		if ps.l.nkeys > 1 || ps.p == tr.entry {
			// CoW the leaf without it (the root leaf may become empty).
			if tr.deleteCoW(t, ps, key, i) {
				return old, true
			}
			continue
		}
		done, ok2 := tr.deleteExcise(t, ps, key)
		if !ok2 {
			continue
		}
		if done {
			return old, true
		}
	}
}

// deleteCoW replaces the leaf with a copy lacking key, its i-th key.
func (tr *Tree) deleteCoW(t *core.Thread, ps pos, key int64, i int) bool {
	remaining := make([]int64, 0, ps.l.nkeys-1)
	vals := make([]uint64, 0, ps.l.nkeys-1)
	for j := 0; j < ps.l.nkeys; j++ {
		if j != i {
			remaining = append(remaining, ps.l.keys[j])
			vals = append(vals, ps.l.vals[j])
		}
	}
	return tr.swapLeaf(t, ps, key, tr.newLeaf(t, remaining, vals), uint8(i+1))
}

// deleteExcise removes a singleton leaf and its separator from the
// parent, collapsing the parent if it would be left with one child. The
// leaf retires marked with its one value dropped.
func (tr *Tree) deleteExcise(t *core.Thread, ps pos, key int64) (bool, bool) {
	if !t.EnterWritePhase() {
		return false, false
	}
	gpCell := &ps.gp.kids[ps.gp.route(key)]
	pCell := &ps.p.kids[ps.p.route(key)]
	ps.gp.mu.Lock()
	ps.p.mu.Lock()
	if (ps.gp != tr.entry && ps.gp.dead.Load()) || ps.p.dead.Load() ||
		gpCell.Load() != unsafe.Pointer(ps.p) || pCell.Load() != unsafe.Pointer(ps.l) ||
		ps.l.nkeys != 1 || ps.l.keys[0] != key {
		ps.p.mu.Unlock()
		ps.gp.mu.Unlock()
		t.ExitWritePhase()
		return false, true
	}
	idx := ps.p.route(key)
	ps.l.drop = 1
	if ps.p.nkids() == 2 {
		// Parent would keep a single child: promote the sibling.
		sib := ps.p.kids[1-idx].Load()
		gpCell.Store(sib)
		ps.p.dead.Store(true)
		ps.l.dead.Store(true)
		ps.p.mu.Unlock()
		ps.gp.mu.Unlock()
		t.Retire(&ps.p.Header)
		t.Retire(&ps.l.Header)
		t.ExitWritePhase()
		return true, true
	}
	// Rebuild the parent without the leaf and without one separator.
	keys := make([]int64, 0, ps.p.nkeys-1)
	kids := make([]unsafe.Pointer, 0, ps.p.nkids()-1)
	for i := 0; i < ps.p.nkids(); i++ {
		if i != idx {
			kids = append(kids, ps.p.kids[i].Load())
		}
	}
	sep := idx
	if sep == ps.p.nkeys {
		sep = ps.p.nkeys - 1
	}
	for i := 0; i < ps.p.nkeys; i++ {
		if i != sep {
			keys = append(keys, ps.p.keys[i])
		}
	}
	np := tr.newInternal(t, keys, kids)
	gpCell.Store(unsafe.Pointer(np))
	ps.p.dead.Store(true)
	ps.l.dead.Store(true)
	ps.p.mu.Unlock()
	ps.gp.mu.Unlock()
	t.Retire(&ps.p.Header)
	t.Retire(&ps.l.Header)
	t.ExitWritePhase()
	return true, true
}

// Scan walks the leaves covering [lo, hi] in key order as one long
// operation (the ds.RangeScanner contract). The tree has no sibling
// links, so the scan is a sequence of validated descents: each descent
// protects the whole leaf (plus its
// ancestors, in the same three rotating slots every search uses) and
// records the minimum right-hand separator on the path — the exclusive
// upper bound of the leaf's key space and therefore the next descent's
// target. This is a deliberately different reservation shape from the
// skiplist's scan (a per-node Protect chain along level 0): here a
// handful of reservations cover up to B keys at a time, so the per-key
// protection cost is amortised while the operation as a whole still
// pins its reservations across every hop.
//
// Validation is the leaf's dead flag, checked after the protecting
// descent completes: leaves are immutable once published and dead is
// set only after the replacement is linked, so !dead proves the
// protected leaf was the live leaf for its interval at that moment, and
// its key array is a consistent snapshot of [from, bound). Emission is
// capped at bound; if the check fails (or NBR neutralizes a hop), the
// scan re-descends to the first key not yet emitted — emitted keys are
// never revisited, keeping output sorted and duplicate-free. emit
// receives each key with the value its (immutable) leaf snapshot holds
// for it; returning false stops the scan.
func (tr *Tree) Scan(t *core.Thread, lo, hi int64, emit func(int64, uint64) bool) {
	if lo > hi {
		return
	}
	t.StartOp()
	defer t.EndOp()
	from := lo
	for {
		ps, ok := tr.search(t, from)
		if !ok {
			continue // neutralized: resume at `from`
		}
		if ps.l.dead.Load() {
			continue // leaf replaced under the descent: retry
		}
		// The leaf is protected and was live at the check above; its key
		// array is immutable, so plain reads are a valid snapshot (under
		// NBR the reclaimer waits for our ack, which we only give at the
		// next Protect — after these reads are done).
		for i := 0; i < ps.l.nkeys; i++ {
			k := ps.l.keys[i]
			if k >= from && k <= hi && k < ps.bound {
				if !emit(k, ps.l.vals[i]) {
					return
				}
			}
		}
		if ps.bound > hi || ps.bound == math.MaxInt64 {
			return // past hi, or on the rightmost spine
		}
		from = ps.bound
	}
}

// mergeKV returns the leaf's keys plus key (sorted) and the parallel
// value slice with val in key's slot.
func mergeKV(l *node, key int64, val uint64) ([]int64, []uint64) {
	keys := make([]int64, 0, l.nkeys+1)
	vals := make([]uint64, 0, l.nkeys+1)
	placed := false
	for i := 0; i < l.nkeys; i++ {
		if !placed && key < l.keys[i] {
			keys = append(keys, key)
			vals = append(vals, val)
			placed = true
		}
		keys = append(keys, l.keys[i])
		vals = append(vals, l.vals[i])
	}
	if !placed {
		keys = append(keys, key)
		vals = append(vals, val)
	}
	return keys, vals
}

// Size counts keys. Quiescent use only.
func (tr *Tree) Size(t *core.Thread) int {
	return count((*node)(tr.entry.kids[0].Load()))
}

func count(n *node) int {
	if n.leaf {
		return n.nkeys
	}
	total := 0
	for i := 0; i < n.nkids(); i++ {
		total += count((*node)(n.kids[i].Load()))
	}
	return total
}

func checkKey(key int64) {
	if key == math.MaxInt64 {
		panic("abtree: key reserved")
	}
}
