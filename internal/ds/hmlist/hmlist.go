// Package hmlist implements the Harris-Michael lock-free linked-list
// map (HML in the paper's plots; Michael [42], building on Harris [29]).
// It is also the repository's unified bottom layer: the hash table's
// buckets and the skiplist's level 0 are both hmlist chains, so the map
// logic — upsert, replace-node-and-retire overwrite, PutIfAbsent,
// Delete, the in-operation bodies the hash table batches, and the retire
// handoff — exists exactly once.
//
// A chain starts at a head word and ends at the list's tail sentinel,
// with nodes sorted by key between them. A list walks its own head word;
// the *At entry points walk a head word the caller owns, so the hash
// table's buckets are one word each, all chains of one list that share
// its node pool and its one tail (Michael's hash table, SPAA 2002).
//
// Deletion is two-phase: a CAS sets the mark bit in the victim's next
// field (logical delete), then a CAS swings the predecessor's next past
// it (physical unlink). Traversals help unlink marked nodes they
// encounter, which is what makes every traversal a potential reclaimer
// interaction — the property that makes this list the paper's most
// SMR-sensitive benchmark (per-read protection cost is paid on every hop
// of every operation).
//
// # Overwrite strategy: replace-node-and-retire
//
// Node values are immutable once published. Storing a new value into a
// live node looks tempting, but the node can be CAS-marked (logically
// deleted) between the lookup and the store, and a concurrent Get could
// then observe a value the map never held — the in-place path is not
// linearizable on a lock-free list. Instead Put on a present key links
// a fresh node carrying the new value directly behind the victim with
// the very CAS that marks the victim:
//
//	victim.next: succ  ->  mark(new)     where new.next = succ
//
// A single CAS therefore (a) logically deletes the victim and (b) makes
// the replacement the continuation of the chain, so traversals that snip
// the marked victim land on a node with the same key and the new value —
// the key is never absent. The victim retires through the ordinary
// deletion path (unlink winner retires), which makes every overwrite a
// retirement: value churn alone now exercises the reclamation layer.
//
// # Retire handoff (LINKING/RETIREREQ)
//
// A structure layered above the list (the skiplist's probabilistic
// index) may keep touching a node after it is published — splicing index
// columns that point at it. Retiring such a node out from under its
// inserter would be a use-after-free, so every retirement funnels
// through a two-bit state machine in the node:
//
//   - The inserter publishes the node with LINKING set (linking mode
//     only) and calls FinishLinking when it stops touching the node.
//   - The unlink winner calls retire, which sets RETIREREQ. If LINKING
//     was already clear the winner retires the node (after the list's
//     purge hook detaches any index state); otherwise the retire is
//     handed off, and FinishLinking — observing RETIREREQ — purges and
//     retires instead.
//
// Exactly one side sees "my bit cleared last" on the same atomic word,
// so every node is retired exactly once. Plain lists (and hash-table
// buckets) run the same code with LINKING never set: retire degenerates
// to the immediate path, and the hash table and skiplist retire through
// literally the same function.
//
// The retire itself runs after ExitWritePhase: the node is already
// unlinked and marked by then, the purge hook must always run to
// completion (it clears index cells a concurrent hint may still
// validate against), and no poll point intervenes between the winning
// CAS and the Retire call, so the handoff is policy-safe under all
// eleven reclamation schemes (the skiplist used this exact ordering
// before the handoff moved here).
//
// # One walk, hinted or not
//
// Every operation positions itself through the same walk, find. An index
// layered above the list descends to some node with key < the target and
// hands it to the hinted entry points (GetInOpHinted, PutInOpHinted,
// DeleteInOpHinted, ScanInOpHinted) as the walk's start, already
// protected in a slot of the caller's choosing; they return valid=false
// when the hint turns out to be stale (start marked, an edge fails
// validation, or a CAS loses a race) — the caller re-descends its index
// for a fresh hint rather than falling back to an O(n) head walk. The
// head walk is the degenerate case: start=nil begins at a head word,
// which cannot go stale, so the same failures simply restart.
//
// Reservation discipline (Michael's, adapted to the core API): three
// rotating slots protect pred, curr and next; after protecting curr's
// successor the traversal re-validates pred.next == curr, restarting (or
// reporting the hint stale) on failure. Under NBR the
// unlink/insert/delete CASes are bracketed by
// EnterWritePhase/ExitWritePhase and a neutralized Protect restarts the
// whole operation.
package hmlist

import (
	"math"
	"sync/atomic"
	"unsafe"

	"pop/internal/core"
)

// State-word bits (Node.state). See the package comment's retire-handoff
// section for the protocol.
const (
	// stateLinking is set by the inserter before the node is published
	// (linking mode only) and cleared by FinishLinking when the inserter
	// stops touching the node. A node with LINKING set is never retired.
	stateLinking = uint32(1) << 0
	// stateRetireReq is set by the unlink winner. If LINKING was already
	// clear the winner retires; otherwise FinishLinking does.
	stateRetireReq = uint32(1) << 1
)

// Node is a list cell. Header must be first (reclamation contract).
// The mark bit of next tags *this* node as logically deleted. key and
// val are immutable once the node is published (see the package comment
// for why values are never stored in place). state is the
// LINKING/RETIREREQ retire-handoff word.
//
// Field order is pinned by TestNodeLayout: next and key, the two words
// every hop of a walk reads, are adjacent, and the node is 56 bytes — with
// the pool's 8-byte slot sequence word a slab slot is exactly one
// 64-byte cache line.
type Node struct {
	core.Header
	next  core.Atomic
	key   int64
	val   uint64
	state atomic.Uint32
}

// Key returns the node's key (immutable once published). Index layers
// need it to locate the column a retiring node owns.
func (n *Node) Key() int64 { return n.key }

// List is a Harris-Michael sorted-list map. It owns the node pool and
// the tail sentinel every chain of it ends at: its own chain, rooted at
// head, and any chain rooted at a caller's head word (InitHead).
type List struct {
	nodes   *core.Nodes[Node]
	head    core.Atomic
	tail    *Node
	linking bool
	purge   func(*core.Thread, *Node)
	// Retire-handoff balance counters (see Handoffs).
	deferred atomic.Int64
	adopted  atomic.Int64
}

// New creates a list, with its own node pool, in domain d.
func New(d *core.Domain) *List { return NewOwning(d, nil) }

// NewOwning is New for a list whose values own memory: freeVal, if
// non-nil, runs on a node's value on the reclaiming thread each time a
// policy frees the node. A value lives in exactly one published node
// from the Put that links it until that node is freed, since values are
// immutable and an overwrite links a fresh node (replace-node-and-retire),
// so freeVal frees each published value exactly once, and no earlier than
// any reader that could have loaded it from the node has ended its
// operation. A value the list returns as replaced or deleted still
// belongs to its retired node; a value a call did not publish (a
// PutIfAbsent on a present key) stays the caller's.
func NewOwning(d *core.Domain, freeVal func(*core.Thread, uint64)) *List {
	var onFree func(*core.Thread, *Node)
	if freeVal != nil {
		onFree = func(t *core.Thread, n *Node) { freeVal(t, n.val) }
	}
	// The tail comes from the Go heap, not the pool: it is never
	// retired, and keeping it out of the pool means Outstanding counts
	// only real keys.
	l := &List{nodes: core.NewNodes(d, onFree), tail: &Node{key: math.MaxInt64}}
	l.InitHead(&l.head)
	return l
}

// InitHead makes head an empty chain of l: a head word linked to l's
// tail. Each chain is a map of its own that shares l's pool and tail;
// head must not be shared with other threads before InitHead returns.
func (l *List) InitHead(head *core.Atomic) { head.Raw(unsafe.Pointer(l.tail)) }

// Outstanding reports pool-level live+retired nodes (memory metric),
// over every chain of the list.
func (l *List) Outstanding() int64 { return l.nodes.Outstanding() }

// EnableLinking switches the list into linking mode: nodes publish with
// LINKING set, PutInOpHinted returns the published node, and the caller
// must call FinishLinking once it stops touching it. purge, if non-nil,
// runs exactly once per retired node — after the node is unlinked and
// marked, before it is Retired — to detach any index state still naming
// it (the skiplist clears its column's node pointer here). Must be
// called before the list is shared.
func (l *List) EnableLinking(purge func(*core.Thread, *Node)) {
	l.linking = true
	l.purge = purge
}

// retire resolves a won unlink through the handoff state machine: the
// sole caller-side entry point for retiring a node. Runs outside the
// write phase (see the package comment).
func (l *List) retire(t *core.Thread, victim *Node) {
	if st := victim.state.Or(stateRetireReq); st&stateLinking != 0 {
		// The inserter is still touching the node (index splice in
		// flight): hand the retire off to its FinishLinking.
		l.deferred.Add(1)
		return
	}
	if l.purge != nil {
		l.purge(t, victim)
	}
	t.Retire(&victim.Header)
}

// FinishLinking releases a published node's LINKING bit. If an unlink
// winner requested the retire while the caller was still linking, the
// handoff lands here: purge + Retire, exactly once.
func (l *List) FinishLinking(t *core.Thread, n *Node) {
	if st := n.state.And(^stateLinking); st&stateRetireReq != 0 {
		l.adopted.Add(1)
		if l.purge != nil {
			l.purge(t, n)
		}
		t.Retire(&n.Header)
	}
}

// Reservation slots. The traversal rotates roles among three physical
// slots so advancing never re-publishes (Michael's index-rotation trick).
// Hinted walks substitute the caller's hint slot for slotC in the
// rotation, so the two walk flavors use disjoint slot sets only by
// convention, never by requirement — each operation owns all its slots.
const (
	slotA = 0
	slotB = 1
	slotC = 2
)

// position is the state of a walk at its stopping point: the
// predecessor's next cell and the two nodes after it, with the
// predecessor (the caller's hint or a walked node; a head word needs no
// protection) protected in sPred and curr in sCurr.
type position struct {
	predCell *core.Atomic
	curr     *Node // protected; tail sentinel if key > all
	next     *Node // protected; successor of curr (nil iff curr==tail)
	sPred    int   // slot currently protecting predCell's node
	sCurr    int   // slot currently protecting curr
	sNext    int   // slot currently protecting next
}

// find is the list's one walk: it locates the first unmarked node with
// key >= key, unlinking marked nodes on the way. It starts at start — a
// node with key strictly below the target, protected by the caller in
// sStart — or, with start == nil, at the chain's head word.
//
// ok=false means the operation was neutralized (NBR) and must restart
// from StartOp level. A failed edge validation or a lost help-CAS
// restarts a head walk; on a hinted walk it returns valid=false instead,
// because the origin itself may be stale and only the caller — who owns
// the index that produced it — can pick a fresh one. A head walk never
// returns valid=false with ok=true.
func (l *List) find(t *core.Thread, key int64, head *core.Atomic, start *Node, sStart int) (pos position, ok, valid bool) {
	// The walk runs over locals and assembles a position only where it
	// returns: a six-word struct is too wide for the compiler to keep
	// in registers (locals are, spilled only around the full hop's
	// calls), and a list-read operation makes ~500 hops, nearly all of
	// them in hops, which calls nothing.
	tail := l.tail
retry:
	predCell := head
	sPred, sCurr, sNext := slotC, slotA, slotB
	if start != nil {
		predCell, sPred = &start.next, sStart
	}
	craw, okp := t.Protect(sCurr, predCell)
	if !okp {
		return position{}, false, false
	}
	if core.Marked(craw) {
		if start == nil {
			// A head word is never marked.
			panic("hmlist: head word marked")
		}
		// The hint itself was deleted under us: its links are no longer
		// a valid walk origin.
		return position{}, true, false
	}
	curr := (*Node)(craw)
	try := t.TryProtects()
	for {
		if try {
			var next *Node
			predCell, curr, next, sPred, sCurr, sNext = l.hops(t, key, predCell, curr, sPred, sCurr, sNext)
			if next != nil {
				return position{predCell, curr, next, sPred, sCurr, sNext}, true, true
			}
		}
		// The full hop: the one hops could not decide, or every hop under
		// a policy TryProtect decides nothing for, which never leaves this
		// loop. It is the inner loop so that such a walk keeps its
		// registers here and pays for hops only the test of try.
		for {
			if curr == tail {
				return position{predCell, curr, nil, sPred, sCurr, sNext}, true, true
			}
			nraw, okp := t.Protect(sNext, &curr.next)
			if !okp {
				return position{}, false, false
			}
			// Validate the edge: pred must still point at curr (and pred
			// must not have been logically deleted, which would mark this
			// cell).
			if predCell.Load() != unsafe.Pointer(curr) {
				if start == nil {
					goto retry
				}
				return position{}, true, false
			}
			if core.Marked(nraw) {
				// curr is logically deleted (or replaced): help unlink it.
				// For a replaced node the masked successor is the same-key
				// replacement, so the walk lands on the key's live node.
				next := (*Node)(core.Mask(nraw))
				if !t.EnterWritePhase() {
					return position{}, false, false
				}
				helped := predCell.CompareAndSwap(unsafe.Pointer(curr), unsafe.Pointer(next))
				t.ExitWritePhase()
				if !helped {
					if start == nil {
						goto retry
					}
					return position{}, true, false
				}
				l.retire(t, curr)
				// next keeps its protection and becomes curr.
				curr = next
				sCurr, sNext = sNext, sCurr
				continue
			}
			next := (*Node)(nraw)
			if curr.key >= key {
				return position{predCell, curr, next, sPred, sCurr, sNext}, true, true
			}
			// Advance: curr becomes pred, next becomes curr; the old pred
			// slot is recycled for the next protection.
			predCell, curr = &curr.next, next
			sPred, sCurr, sNext = sCurr, sNext, sPred
			if try {
				break // back to hops
			}
		}
	}
}

// hops is find's common hop as a loop that calls nothing: protect curr's
// successor through the inlined TryProtect, validate the edge, check
// curr's mark, compare the key and advance. It stops at curr, with next
// nil, at the first hop it cannot decide — TryProtect decided nothing,
// the edge failed, curr is marked, or curr is the tail — for find's full
// hop to take. At the first node with key >= key it returns that node's
// protected successor as next. It is a function of its own, called once
// per full hop, so that the loop's registers are its own: written inside
// find, the loop's state was reshuffled around the full hop's call on
// every hop of the policies TryProtect decides nothing for.
func (l *List) hops(t *core.Thread, key int64, predCell *core.Atomic, curr *Node, sPred, sCurr, sNext int) (*core.Atomic, *Node, *Node, int, int, int) {
	for curr != l.tail {
		nraw, ok := t.TryProtect(sNext, &curr.next)
		if !ok || predCell.Load() != unsafe.Pointer(curr) || core.Marked(nraw) {
			break
		}
		if curr.key >= key {
			return predCell, curr, (*Node)(nraw), sPred, sCurr, sNext
		}
		predCell, curr = &curr.next, (*Node)(nraw)
		sPred, sCurr, sNext = sCurr, sNext, sPred
	}
	return predCell, curr, nil, sPred, sCurr, sNext
}

// Get returns the value mapped to key.
func (l *List) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return l.GetInOpAt(t, &l.head, key)
}

// GetInOpAt is Get's body without the StartOp/EndOp bracket, on the
// chain rooted at head (see InitHead): the caller must already be inside
// an operation on t (the ds.InOp contract). The hash table runs a
// batch's lookups through it, so many keys share one protected
// entry/exit.
func (l *List) GetInOpAt(t *core.Thread, head *core.Atomic, key int64) (uint64, bool) {
	v, present, _ := l.get(t, key, head, nil, 0)
	return v, present
}

// GetInOpHinted is Get's body resuming at a hinted start node (see
// find). valid=false: the hint was stale, re-descend.
func (l *List) GetInOpHinted(t *core.Thread, key int64, start *Node, sStart int) (v uint64, present, valid bool) {
	return l.get(t, key, &l.head, start, sStart)
}

// get is GetInOpHinted's body, walking from head when start is nil; a
// head walk retries internally and always returns valid=true.
func (l *List) get(t *core.Thread, key int64, head *core.Atomic, start *Node, sStart int) (v uint64, present, valid bool) {
	for {
		pos, ok, val := l.find(t, key, head, start, sStart)
		if !ok || !val {
			if start != nil {
				return 0, false, false
			}
			continue // neutralized head walk: retry within the operation
		}
		if pos.curr == l.tail || pos.curr.key != key {
			return 0, false, true
		}
		// curr is protected and its value immutable: a plain read is the
		// value the node was published with.
		return pos.curr.val, true, true
	}
}

// PutIfAbsent maps key to val only if key is absent.
func (l *List) PutIfAbsent(t *core.Thread, key int64, val uint64) bool {
	t.StartOp()
	defer t.EndOp()
	inserted, _, _ := l.PutInOpAt(t, &l.head, key, val, false)
	return inserted
}

// Put maps key to val, overwriting; returns the previous value.
func (l *List) Put(t *core.Thread, key int64, val uint64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	_, old, replaced := l.PutInOpAt(t, &l.head, key, val, true)
	return old, replaced
}

// PutInOpAt is the insert/overwrite path, inside an already-open
// operation, on the chain rooted at head (see InitHead). With
// overwrite=false it reports whether it inserted; with overwrite=true it
// always installs val and reports the value it replaced, using
// replace-node-and-retire on a present key (see the package comment). An
// NBR neutralization restarts the walk within the operation. In linking
// mode the published node's LINKING bit is released immediately — this
// path builds no index, so the node is never touched after publication.
func (l *List) PutInOpAt(t *core.Thread, head *core.Atomic, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	out, _ := l.upsert(t, key, val, overwrite, head, nil, 0)
	if out.New != nil && l.linking {
		l.FinishLinking(t, out.New)
	}
	return out.Inserted, out.Old, out.Replaced
}

// PutOutcome is the result of PutInOpHinted. New is the node the call
// published (insert or replacement), nil if nothing was published; in
// linking mode the caller owns its LINKING bit and must call
// FinishLinking once it stops touching it.
type PutOutcome struct {
	Inserted bool
	Old      uint64
	Replaced bool
	New      *Node
}

// PutInOpHinted is the upsert body resuming at a hinted start node (see
// find). valid=false: the hint went stale or a CAS lost its race —
// nothing was published, re-descend and retry. With start=nil it
// retries internally and always returns valid=true.
func (l *List) PutInOpHinted(t *core.Thread, key int64, val uint64, overwrite bool, start *Node, sStart int) (out PutOutcome, valid bool) {
	return l.upsert(t, key, val, overwrite, &l.head, start, sStart)
}

// upsert is PutInOpHinted's body, walking from head when start is nil.
// It never returns valid=false from a head walk.
func (l *List) upsert(t *core.Thread, key int64, val uint64, overwrite bool, head *core.Atomic, start *Node, sStart int) (out PutOutcome, valid bool) {
	checkKey(key)
	var n *Node
	for {
		pos, ok, val2 := l.find(t, key, head, start, sStart)
		if !ok || !val2 {
			if start != nil {
				goto fail
			}
			continue
		}
		if pos.curr != l.tail && pos.curr.key == key {
			if !overwrite {
				if n != nil {
					l.nodes.Unused(t, n)
				}
				return PutOutcome{Old: pos.curr.val, Replaced: true}, true
			}
			// Overwrite: replace the victim. One CAS marks it and links
			// the replacement behind it, so the key is never absent.
			victim := pos.curr // protected in pos.sCurr
			if n == nil {
				n = l.alloc(t, key, val)
			}
			n.next.Raw(unsafe.Pointer(pos.next))
			// Snapshot the replaced value before the CAS: the victim is
			// immutable, and once it is retired a neutralized thread (NBR)
			// must not touch it again.
			old := victim.val
			if !t.EnterWritePhase() {
				if start != nil {
					goto fail
				}
				continue
			}
			if !victim.next.CompareAndSwap(unsafe.Pointer(pos.next), core.WithMark(unsafe.Pointer(n))) {
				// Lost to a racing delete/overwrite: re-find. n stays
				// private and is reused (head walk) or returned (hinted).
				t.ExitWritePhase()
				if start != nil {
					goto fail
				}
				continue
			}
			// Linearized: n replaced victim. Physically unlink the victim;
			// on failure some traversal will help (and resolve the retire).
			if pos.predCell.CompareAndSwap(unsafe.Pointer(victim), unsafe.Pointer(n)) {
				t.ExitWritePhase()
				l.retire(t, victim)
			} else {
				t.ExitWritePhase()
			}
			return PutOutcome{Old: old, Replaced: true, New: n}, true
		}
		if n == nil {
			n = l.alloc(t, key, val)
		}
		n.next.Raw(unsafe.Pointer(pos.curr))
		if !t.EnterWritePhase() {
			if start != nil {
				goto fail
			}
			continue
		}
		if pos.predCell.CompareAndSwap(unsafe.Pointer(pos.curr), unsafe.Pointer(n)) {
			t.ExitWritePhase()
			return PutOutcome{Inserted: true, New: n}, true
		}
		t.ExitWritePhase()
		if start != nil {
			goto fail
		}
	}
fail:
	if n != nil {
		// Never published: return straight to the pool.
		l.nodes.Unused(t, n)
	}
	return PutOutcome{}, false
}

// alloc draws and initialises an unpublished node. The state word is
// always re-stored: a recycled node carries its previous life's bits.
func (l *List) alloc(t *core.Thread, key int64, val uint64) *Node {
	n := l.nodes.Alloc(t)
	n.key = key
	n.val = val
	st := uint32(0)
	if l.linking {
		st = stateLinking
	}
	n.state.Store(st)
	return n
}

// Delete removes key and returns the value it removed.
func (l *List) Delete(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return l.DeleteInOpAt(t, &l.head, key)
}

// DeleteInOpAt is Delete's body, inside an already-open operation, on
// the chain rooted at head (see InitHead).
func (l *List) DeleteInOpAt(t *core.Thread, head *core.Atomic, key int64) (uint64, bool) {
	old, removed, _ := l.remove(t, key, head, nil, 0)
	return old, removed
}

// DeleteInOpHinted is Delete's body resuming at a hinted start node
// (see find). valid=false: the hint went stale or the mark CAS lost
// its race — nothing was removed, re-descend and retry.
func (l *List) DeleteInOpHinted(t *core.Thread, key int64, start *Node, sStart int) (old uint64, removed, valid bool) {
	return l.remove(t, key, &l.head, start, sStart)
}

// remove is DeleteInOpHinted's body, walking from head when start is
// nil; a head walk retries internally and always returns valid=true.
func (l *List) remove(t *core.Thread, key int64, head *core.Atomic, start *Node, sStart int) (old uint64, removed, valid bool) {
	checkKey(key)
	for {
		pos, ok, val := l.find(t, key, head, start, sStart)
		if !ok || !val {
			if start != nil {
				return 0, false, false
			}
			continue
		}
		if pos.curr == l.tail || pos.curr.key != key {
			return 0, false, true
		}
		// Snapshot before the mark CAS: values are immutable, and after
		// the retire a neutralized thread must not touch the node.
		old = pos.curr.val
		if !t.EnterWritePhase() {
			if start != nil {
				return 0, false, false
			}
			continue
		}
		// Logical delete: mark curr.next. pos.next is protected, so the
		// CAS succeeding means no successor change raced us.
		if !pos.curr.next.CompareAndSwap(unsafe.Pointer(pos.next), core.WithMark(unsafe.Pointer(pos.next))) {
			t.ExitWritePhase()
			if start != nil {
				return 0, false, false
			}
			continue
		}
		// Physical unlink; on failure some traversal will help (and
		// resolve the retire through the same handoff).
		if pos.predCell.CompareAndSwap(unsafe.Pointer(pos.curr), unsafe.Pointer(pos.next)) {
			t.ExitWritePhase()
			l.retire(t, pos.curr)
		} else {
			t.ExitWritePhase()
		}
		return old, true, true
	}
}

// ScanInOpHinted walks keys in [from, hi] ascending, resuming at a
// hinted start node (see find; start=nil walks from the head),
// emitting every (key, value) pair observed unmarked while validated
// reachable. done=true: the scan passed hi (or emit returned false).
// done=false: a hop failed validation, was neutralized, or hit a marked
// node (whose links are not a safe bridge) — re-descend and call again
// with from=resume; keys below resume were emitted and are never
// revisited, keeping output sorted and unique.
func (l *List) ScanInOpHinted(t *core.Thread, from, hi int64, start *Node, sStart int, emit func(int64, uint64) bool) (resume int64, done bool) {
	pos, ok, valid := l.find(t, from, &l.head, start, sStart)
	if !ok || !valid {
		return from, false
	}
	predCell, curr := pos.predCell, pos.curr
	// Full three-slot rotation, exactly as in the find walk: the node
	// holding predCell must keep its reservation through the validation
	// read below, so the slot reused for each new protect is the one two
	// hops back, never the current predecessor's.
	sPred, sCurr, sNext := pos.sPred, pos.sCurr, pos.sNext
	for {
		if curr == l.tail || curr.key > hi {
			return 0, true
		}
		// Snapshot the key and value while curr is still protected: a
		// failed Protect below means we were neutralized and curr may be
		// reclaimed before the !ok branch runs.
		k, v := curr.key, curr.val
		nraw, okp := t.Protect(sNext, &curr.next)
		if !okp {
			return k, false // neutralized: re-descend
		}
		if predCell.Load() != unsafe.Pointer(curr) {
			return k, false // chain changed behind us: re-descend
		}
		if core.Marked(nraw) {
			// curr was deleted or replaced under the scan: resume at its
			// key (the re-descent finds the replacement if there is one,
			// whose key has not been emitted yet).
			return k, false
		}
		if !emit(k, v) {
			return 0, true
		}
		predCell = &curr.next
		curr = (*Node)(nraw)
		sPred, sCurr, sNext = sCurr, sNext, sPred
	}
}

// Size counts the unmarked nodes. Quiescent use only.
func (l *List) Size(t *core.Thread) int { return l.SizeAt(&l.head) }

// SizeAt counts the unmarked nodes of the chain rooted at head (see
// InitHead). Quiescent use only.
func (l *List) SizeAt(head *core.Atomic) int {
	n := 0
	for c := (*Node)(core.Mask(head.Load())); c != l.tail; {
		nraw := c.next.Load()
		if !core.Marked(nraw) {
			n++
		}
		c = (*Node)(core.Mask(nraw))
	}
	return n
}

func checkKey(key int64) {
	if key == math.MinInt64 || key == math.MaxInt64 {
		panic("hmlist: key collides with sentinel")
	}
}
