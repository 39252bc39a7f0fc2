// Package hmlist implements the Harris-Michael lock-free linked-list
// map (HML in the paper's plots; Michael [42], building on Harris [29]).
// It is also the repository's unified bottom layer: the hash table's
// buckets and the skiplist's level 0 are both hmlist chains, so the map
// logic — upsert, replace-node-and-retire overwrite, PutIfAbsent,
// Delete, batched get/put, and the retire handoff — exists exactly once.
//
// Nodes are sorted by key between two sentinels. Deletion is two-phase:
// a CAS sets the mark bit in the victim's next field (logical delete),
// then a CAS swings the predecessor's next past it (physical unlink).
// Traversals help unlink marked nodes they encounter, which is what makes
// every traversal a potential reclaimer interaction — the property that
// makes this list the paper's most SMR-sensitive benchmark (per-read
// protection cost is paid on every hop of every operation).
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
// so every node is retired exactly once. Plain lists (hash-table
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
// head walk is the degenerate case: start=nil begins at the head
// sentinel, which cannot go stale, so the same failures simply restart.
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

	"pop/internal/arena"
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

// Shared is the allocation state that one or more lists built over the
// same domain can share — the hash table creates one Shared and thousands
// of bucket Lists.
type Shared struct {
	d      *core.Domain
	typ    uint8
	pool   *arena.Pool[Node]
	caches []*arena.ThreadCache[Node] // indexed by thread id, owner-only
	// Retire-handoff balance counters (see Handoffs).
	deferred atomic.Int64
	adopted  atomic.Int64
}

// NewShared creates the node pool for lists in domain d.
func NewShared(d *core.Domain) *Shared {
	s := &Shared{
		d:      d,
		pool:   arena.NewPool[Node](nil, nil),
		caches: make([]*arena.ThreadCache[Node], d.MaxThreads()),
	}
	s.typ = d.RegisterType(func(t *core.Thread, h *core.Header) {
		s.cacheFor(t).Put((*Node)(unsafe.Pointer(h)))
	})
	return s
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (s *Shared) Outstanding() int64 { return s.pool.Outstanding() }

// Handoffs reports the retire-handoff balance: deferred counts unlink
// winners that found LINKING set and handed the retire to the inserter;
// adopted counts FinishLinking calls that observed RETIREREQ and
// performed the handed-off retire. At quiescence the two must be equal —
// every deferred retire was adopted by exactly one inserter.
func (s *Shared) Handoffs() (deferred, adopted int64) {
	return s.deferred.Load(), s.adopted.Load()
}

// cacheFor returns t's allocation cache, creating it on first use. The
// slot is only ever touched by t's goroutine.
func (s *Shared) cacheFor(t *core.Thread) *arena.ThreadCache[Node] {
	c := s.caches[t.ID()]
	if c == nil {
		c = s.pool.NewCache()
		s.caches[t.ID()] = c
	}
	return c
}

// List is a Harris-Michael sorted-list map.
type List struct {
	s       *Shared
	head    *Node
	tail    *Node
	linking bool
	purge   func(*core.Thread, *Node)
}

// New creates a standalone list (with its own Shared pool) in domain d.
func New(d *core.Domain) *List { return NewWithShared(NewShared(d)) }

// NewWithShared creates a list drawing nodes from an existing pool.
func NewWithShared(s *Shared) *List {
	// Sentinels come from the Go heap, not the pool: they are never
	// retired, and keeping them out of the pool means pool.Outstanding
	// counts only real keys.
	head := &Node{key: math.MinInt64}
	tail := &Node{key: math.MaxInt64}
	head.next.Raw(unsafe.Pointer(tail))
	return &List{s: s, head: head, tail: tail}
}

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
		l.s.deferred.Add(1)
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
		l.s.adopted.Add(1)
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
// predecessor (the head sentinel, the caller's hint or a walked node)
// protected in sPred and curr in sCurr.
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
// sStart — or, with start == nil, at the head sentinel in slotC.
//
// ok=false means the operation was neutralized (NBR) and must restart
// from StartOp level. A failed edge validation or a lost help-CAS
// restarts a head walk; on a hinted walk it returns valid=false instead,
// because the origin itself may be stale and only the caller — who owns
// the index that produced it — can pick a fresh one. A head walk never
// returns valid=false with ok=true.
func (l *List) find(t *core.Thread, key int64, start *Node, sStart int) (pos position, ok, valid bool) {
	// The walk runs over locals and assembles a position only where it
	// returns: a six-word struct is too wide for the compiler to keep
	// in registers (locals are, spilled only around the Protect call),
	// and a list-read operation makes ~500 hops.
	tail := l.tail
retry:
	predCell := &l.head.next
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
			// Head is never deleted; a marked head.next is impossible.
			panic("hmlist: head.next marked")
		}
		// The hint itself was deleted under us: its links are no longer
		// a valid walk origin.
		return position{}, true, false
	}
	curr := (*Node)(craw)
	for {
		if curr == tail {
			return position{predCell, curr, nil, sPred, sCurr, sNext}, true, true
		}
		nraw, okp := t.Protect(sNext, &curr.next)
		if !okp {
			return position{}, false, false
		}
		// Validate the edge: pred must still point at curr (and pred must
		// not have been logically deleted, which would mark this cell).
		if predCell.Load() != unsafe.Pointer(curr) {
			if start == nil {
				goto retry
			}
			return position{}, true, false
		}
		if core.Marked(nraw) {
			// curr is logically deleted (or replaced): help unlink it. For
			// a replaced node the masked successor is the same-key
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
	}
}

// Get returns the value mapped to key.
func (l *List) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return l.GetInOp(t, key)
}

// GetInOp is Get's body without the StartOp/EndOp bracket: the caller
// must already be inside an operation on t. It exists for batch
// wrappers (GetBatch here, the hash table's cross-bucket batch) that
// amortize one protected entry/exit over many lookups.
func (l *List) GetInOp(t *core.Thread, key int64) (uint64, bool) {
	for {
		v, present, valid := l.GetInOpHinted(t, key, nil, 0)
		if valid {
			return v, present
		}
	}
}

// GetInOpHinted is GetInOp resuming at a hinted start node (see
// find). valid=false: the hint was stale, re-descend.
func (l *List) GetInOpHinted(t *core.Thread, key int64, start *Node, sStart int) (v uint64, present, valid bool) {
	for {
		pos, ok, val := l.find(t, key, start, sStart)
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

// GetBatch looks up every keys[i] inside one protected operation,
// recording results in vals[i] and present[i] (the ds.BatchGetter
// contract).
func (l *List) GetBatch(t *core.Thread, keys []int64, vals []uint64, present []bool) {
	t.StartOp()
	defer t.EndOp()
	for i, key := range keys {
		vals[i], present[i] = l.GetInOp(t, key)
	}
}

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

// PutInOp is Put's body without the StartOp/EndOp bracket: the caller
// must already be inside an operation on t. It exists for batch
// wrappers (PutBatch here, the hash table's cross-bucket batch) that
// amortize one protected entry/exit over many upserts.
func (l *List) PutInOp(t *core.Thread, key int64, val uint64) (uint64, bool) {
	_, old, replaced := l.putInOp(t, key, val, true)
	return old, replaced
}

// PutBatch upserts every keys[i] inside one protected operation,
// recording the replaced values in old[i]/replaced[i] (the
// ds.BatchPutter contract).
func (l *List) PutBatch(t *core.Thread, keys []int64, vals []uint64, old []uint64, replaced []bool) {
	t.StartOp()
	defer t.EndOp()
	for i, key := range keys {
		old[i], replaced[i] = l.PutInOp(t, key, vals[i])
	}
}

// put is the shared insert/overwrite path. With overwrite=false it
// reports whether it inserted; with overwrite=true it always installs
// val and reports the value it replaced, using replace-node-and-retire
// on a present key (see the package comment).
func (l *List) put(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	t.StartOp()
	defer t.EndOp()
	return l.putInOp(t, key, val, overwrite)
}

// putInOp is put inside an already-open operation. An NBR
// neutralization restarts the find loop within the operation, matching
// GetInOp's discipline. In linking mode the published node's LINKING
// bit is released immediately — this path builds no index, so the node
// is never touched after publication.
func (l *List) putInOp(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	for {
		out, valid := l.PutInOpHinted(t, key, val, overwrite, nil, 0)
		if !valid {
			continue
		}
		if out.New != nil && l.linking {
			l.FinishLinking(t, out.New)
		}
		return out.Inserted, out.Old, out.Replaced
	}
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
	checkKey(key)
	cache := l.s.cacheFor(t)
	var n *Node
	for {
		pos, ok, val2 := l.find(t, key, start, sStart)
		if !ok || !val2 {
			if start != nil {
				goto fail
			}
			continue
		}
		if pos.curr != l.tail && pos.curr.key == key {
			if !overwrite {
				if n != nil {
					cache.Put(n)
				}
				return PutOutcome{Old: pos.curr.val, Replaced: true}, true
			}
			// Overwrite: replace the victim. One CAS marks it and links
			// the replacement behind it, so the key is never absent.
			victim := pos.curr // protected in pos.sCurr
			if n == nil {
				n = l.alloc(t, cache, key, val)
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
			n = l.alloc(t, cache, key, val)
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
		cache.Put(n)
	}
	return PutOutcome{}, false
}

// alloc draws and initialises an unpublished node. The state word is
// always re-stored: a recycled node carries its previous life's bits.
func (l *List) alloc(t *core.Thread, cache *arena.ThreadCache[Node], key int64, val uint64) *Node {
	n := cache.Get()
	n.key = key
	n.val = val
	st := uint32(0)
	if l.linking {
		st = stateLinking
	}
	n.state.Store(st)
	t.OnAlloc(&n.Header, l.s.typ)
	return n
}

// Delete removes key and returns the value it removed.
func (l *List) Delete(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	for {
		old, removed, valid := l.DeleteInOpHinted(t, key, nil, 0)
		if valid {
			return old, removed
		}
	}
}

// DeleteInOpHinted is Delete's body resuming at a hinted start node
// (see find). valid=false: the hint went stale or the mark CAS lost
// its race — nothing was removed, re-descend and retry.
func (l *List) DeleteInOpHinted(t *core.Thread, key int64, start *Node, sStart int) (old uint64, removed, valid bool) {
	checkKey(key)
	for {
		pos, ok, val := l.find(t, key, start, sStart)
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
	pos, ok, valid := l.find(t, from, start, sStart)
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
func (l *List) Size(t *core.Thread) int {
	n := 0
	for c := (*Node)(core.Mask(l.head.next.Load())); c != l.tail; {
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

// Outstanding reports pool-level live+retired nodes (memory metric).
func (l *List) Outstanding() int64 { return l.s.Outstanding() }
