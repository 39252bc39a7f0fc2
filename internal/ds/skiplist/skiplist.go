// Package skiplist implements a lock-free skiplist map (SKL in the
// harness) whose bottom layer *is* an hmlist.List: membership, upsert,
// replace-node-and-retire overwrite, deletion, batched get/put and the
// LINKING/RETIREREQ retire handoff all live in the shared Harris-Michael
// bottom layer (see package hmlist), and this package contributes only
// the probabilistic index above it. It is one of the repository's two
// structures with ordered range scans, which makes it the SMR-heaviest
// workload available: a scan is one long operation that protects every
// hop, exactly the traversal pressure the paper's §5.1.2
// long-running-reads experiment puts on reservation publication.
//
// # Index columns: GC-managed, protection-free
//
// Earlier revisions gave every node a tower of forward links and paid
// for it twice: ~96 B/key of pooled link cells, and a full reservation
// protocol (protect + validate per hop) on every index level, because
// index cells lived inside reclaimed nodes. The index is now a separate
// spine of *columns* on the ordinary Go heap:
//
//	column{ key, n (-> bottom node), h } + h right-link cells, one object
//
// A column is published once by its inserter and unlinked when its node
// retires, but never pooled or freed manually — the garbage collector
// owns it. That one decision deletes the entire reservation protocol
// from the index: walkers chase column pointers with plain loads (a
// stale column routes conservatively, never dangles), and index CASes
// need no write-phase brackets under NBR because nothing in the index
// is ever reclaimed by the domain. Only the final hop — materializing
// the bottom-layer hint out of a column's n cell — publishes a
// reservation, and the hmlist walk it seeds revalidates everything.
//
// A descent through an index larger than cache pays for cache lines, not
// instructions, so the header and its cells are one allocation (see
// newColumn) sized so that what a visit reads — the key, then the cell
// for the level being walked — shares a line: 32 B for height 1, 64 B
// for heights 2–5, 128 B for 6–13. When the cells were a slice the
// column pointed to, every visited column was two dependent misses
// (header, then a cell array from another size class) and carried a
// 24 B slice header; BenchmarkGetIndexed/128K read 811–996 ns per Get
// before and 541–599 ns after, BenchmarkPutIndexed/128K 2.2–2.8 µs and
// 1.5–1.7 µs.
//
// Column heights are geometric(1/4): three quarters of keys have no
// column at all, and a column averages ~40 B (three in four are the
// 32 B shape), so the index costs ~10 B per key (~15 B with the
// separate cell slice), versus one mandatory tower per key before.
// Lookups still descend O(log n) expected: a quarter-density index is
// one extra bottom hop per descent on average, traded for hint hops
// that touch no shared SMR state at all.
//
// # Hint protocol (why a column may be trusted)
//
// hintFor walks the columns to the last column with key < target and
// protects that column's n cell. The column clears n *before* the
// node is retired (purge runs before Retire under every policy — see
// hmlist's retire ordering), so a successful Protect on n happened
// before the clear, hence before the Retire, hence before any
// reclaimer's scan: the hint node is safely dereferenceable. The hinted
// hmlist walk then revalidates the ordinary way; any staleness
// (hint marked, edge changed, CAS lost) surfaces as valid=false and the
// operation re-descends for a fresh hint, falling back to a plain head
// walk after maxHintTries misses so progress never depends on a stalled
// purge.
//
// # One walk
//
// Everything that touches the index positions itself through one
// top-down descent, walk(key, lvl): hints (lvl 0, then the n cell),
// splices, the purge's identity probe and each level's unlink. Nothing
// scans a level from the head column, so every index operation —
// purges included — costs O(log n) expected column loads
// (TestPurgeStepCount asserts it on a counter). walk returns the cell
// value it compared, not just the predecessor: a splice or unlink CASes
// pred's cell against exactly that value, so anything that landed in
// between fails the CAS instead of being linked around. A marked cell
// value means pred itself is being purged, and the caller walks again —
// the next walk helps pred out of the chain.
//
// # Column lifecycle
//
// The inserter publishes its bottom node with LINKING set (hmlist's
// linking mode), builds the column bottom-up — so a column spliced
// anywhere is always spliced at index level 0 — and only then releases
// LINKING. Retirement funnels through hmlist's handoff: whichever side
// clears its state bit last runs this package's purge hook exactly
// once. The purge walks to the victim's key at index level 0 and finds
// its column by node identity in the equal-key run there (absent means
// the column was never published: unreachable Go garbage, nothing to
// do), marks every right cell top-down so walkers stop splicing behind
// it and help unlink it, then unlinks each level from a fresh walk to
// its key and clears n last. Mark-then-unlink on the column cells is
// what makes a concurrent splice either land before the mark (and be
// preserved by the unlink CAS, which swings to the masked successor) or
// fail its CAS and re-walk — a splice is never lost into a dead column.
package skiplist

import (
	"math"
	"sync/atomic"
	"unsafe"

	"pop/internal/core"
	"pop/internal/ds/hmlist"
	"pop/internal/rng"
)

// maxIndexHeight caps the number of index levels. Geometric(1/4)
// heights over 2^16 expected columns per level-16 cell covers every
// structure size the harness runs.
const maxIndexHeight = 16

// maxHintTries is how many stale hints an operation tolerates before
// falling back to a head walk: re-descending is cheap, but progress
// must not depend on the purge of a dead column ever being scheduled.
const maxHintTries = 3

// slotHint is the reservation slot holding the bottom-layer hint node.
// The hinted hmlist walk rotates it with slots 0 and 1; slot 2 is only
// used by head walks.
const slotHint = 3

// column is one key's index presence: the bottom node the index routes
// to plus h cells of right links, which trail this header inside the
// same heap object (see newColumn; cell is the only way to reach them).
// Columns live on the Go heap — the GC reclaims them, the domain never
// does (see the package comment) — so key and h are plainly immutable,
// right cells carry the usual mark bit ("this column is being purged"),
// and n is a protectable cell cleared before the node retires.
type column struct {
	key int64
	n   core.Atomic
	h   int
}

// The allocation shapes: a column header with its cells inline. Every
// size is what the Go allocator hands out anyway (no rounding waste),
// and the three that hold interior columns are powers of two, so the
// key a descent compares and the cell it loads next never straddle a
// cache line — 32 B for height 1 (three quarters of all columns, two per
// line), 64 B for heights 2–5 (one line), 128 B for 6–13 (key and the
// cells for levels 0–4 on the first line). The 152 B shape (the 160 B
// class) is the 16-cell head column and the 4^-14 of columns taller than
// 13. TestColumnLayout pins each size.
type (
	col1 struct {
		column
		cells [1]core.Atomic
	}
	col5 struct {
		column
		cells [5]core.Atomic
	}
	col13 struct {
		column
		cells [13]core.Atomic
	}
	col16 struct {
		column
		cells [maxIndexHeight]core.Atomic
	}
)

// newColumn allocates a column of height h — header and cells in one
// object, the smallest shape that holds h cells (h = 0, the tail column,
// is a bare header). The cells' type is what makes the GC scan them.
func newColumn(key int64, h int) *column {
	var c *column
	switch {
	case h == 0:
		c = new(column)
	case h == 1:
		c = &new(col1).column
	case h <= 5:
		c = &new(col5).column
	case h <= 13:
		c = &new(col13).column
	default:
		c = &new(col16).column
	}
	c.key, c.h = key, h
	return c
}

// cell returns right link i of c. The bounds check is what keeps the
// pointer arithmetic inside c's own allocation: newColumn sized the
// object for h cells.
func (c *column) cell(i int) *core.Atomic {
	if uint(i) >= uint(c.h) {
		panic("skiplist: column cell index out of range")
	}
	return (*core.Atomic)(unsafe.Add(unsafe.Pointer(c), unsafe.Sizeof(column{})+uintptr(i)*unsafe.Sizeof(core.Atomic{})))
}

// colLocal is a thread's private state: the height-distribution
// generator, and purgeHops — every column purgeIndex has loaded on this
// thread, the step count TestPurgeStepCount reads.
type colLocal struct {
	hrng      *rng.State
	purgeHops int
}

// List is a lock-free skiplist map of int64 keys to uint64 values.
type List struct {
	b       *hmlist.List
	headCol *column // full-height column before all keys; never purged
	tailCol *column // terminates every index level (marked cells must
	// stay non-nil, the core.WithMark contract), key = MaxInt64
	top    atomic.Int32 // index levels in use; see indexTop
	locals []*colLocal  // indexed by thread id, owner-only
}

// New creates an empty skiplist in domain d.
func New(d *core.Domain) *List {
	l := &List{
		headCol: newColumn(math.MinInt64, maxIndexHeight),
		tailCol: newColumn(math.MaxInt64, 0),
		locals:  make([]*colLocal, d.MaxThreads()),
	}
	for h := 0; h < maxIndexHeight; h++ {
		l.headCol.cell(h).Raw(unsafe.Pointer(l.tailCol))
	}
	l.b = hmlist.New(d)
	l.b.EnableLinking(l.purgeIndex)
	return l
}

// Outstanding reports pool-level live+retired nodes (memory metric).
// Index columns are deliberately absent: they are Go-heap objects.
func (l *List) Outstanding() int64 { return l.b.Outstanding() }

// localFor returns t's thread-local state, creating it on first use.
// The slot is only ever touched by t's goroutine.
func (l *List) localFor(t *core.Thread) *colLocal {
	tl := l.locals[t.ID()]
	if tl == nil {
		tl = &colLocal{hrng: rng.New(0x5ee9_11f7<<16 ^ uint64(t.ID())*0x9e3779b97f4a7c15)}
		l.locals[t.ID()] = tl
	}
	return tl
}

// indexHeight draws a geometric(1/4) column height in [0, maxIndexHeight]:
// 0 (no column) with probability 3/4, each further level a 1/4 event.
func indexHeight(r *rng.State) int {
	h := 0
	for bits := r.Uint64(); bits&3 == 3 && h < maxIndexHeight; bits >>= 2 {
		h++
	}
	return h
}

// indexTop returns the number of index levels currently worth
// descending: one atomic load. The counter is raised by splicers and
// never lowered — starting a descent above the live columns only costs
// head-column loads that land on the tail, while starting below one is
// always safe because upper levels are only shortcuts (every key is
// reachable through the bottom layer alone).
func (l *List) indexTop() int { return int(l.top.Load()) }

func (l *List) raiseTop(h int) {
	for {
		t0 := l.top.Load()
		if int32(h) <= t0 || l.top.CompareAndSwap(t0, int32(h)) {
			return
		}
	}
}

// walk is the index's one descent (see "One walk" in the package
// comment): from indexTop() down to lvl, at each level advancing to the
// last column with key strictly below key. All loads are plain (GC
// memory), and each visited column costs one of them: the successor cell
// loaded for the mark check is the cell value the next iteration
// compares. It returns that column (headCol when none precedes key), the
// cell value it compared at lvl — the craw whose masked successor has
// key >= key, which is what a caller's CAS on pred.cell(lvl) must
// expect — and the number of columns it loaded.
func (l *List) walk(key int64, lvl int) (pred *column, craw unsafe.Pointer, hops int) {
	pred = l.headCol
	for h := max(l.indexTop()-1, lvl); h >= lvl; h-- {
		craw = pred.cell(h).Load()
		for {
			c := (*column)(core.Mask(craw))
			hops++
			if c.key >= key {
				break // descend a level
			}
			// A marked right cell means c is being purged: help unlink it if
			// pred's cell is clean; a marked pred cell means pred is being
			// purged too — just route through (columns never dangle).
			rraw := c.cell(h).Load()
			if core.Marked(rraw) && !core.Marked(craw) && pred.cell(h).CompareAndSwap(craw, core.Mask(rraw)) {
				craw = core.Mask(rraw)
				continue
			}
			pred, craw = c, rraw
		}
	}
	return pred, craw, hops
}

// hintFor materializes a bottom-layer walk origin for key: walk the
// index, protect the final column's n cell in slotHint. A nil return
// (no index progress, cleared n, neutralized protect, or the caller
// exhausted maxHintTries) means walk from the head.
func (l *List) hintFor(t *core.Thread, key int64, attempt int) (*hmlist.Node, int) {
	if attempt >= maxHintTries {
		return nil, 0
	}
	c, _, _ := l.walk(key, 0)
	if c == l.headCol {
		return nil, 0
	}
	raw, ok := t.Protect(slotHint, &c.n)
	if !ok || raw == nil {
		return nil, 0
	}
	return (*hmlist.Node)(raw), slotHint
}

// linkIndex publishes n's column: height drawn geometric(1/4) (0 = no
// column, the common case), levels spliced bottom-up so presence at any
// level implies presence at index level 0 — the invariant purgeIndex's
// level-0 search relies on. Runs between the bottom-layer publish and
// FinishLinking, so the node cannot retire (and the column cannot be
// purged) while it is under construction.
func (l *List) linkIndex(t *core.Thread, n *hmlist.Node, key int64) {
	h := indexHeight(l.localFor(t).hrng)
	if h == 0 {
		return
	}
	c := newColumn(key, h)
	c.n.Raw(unsafe.Pointer(n))
	for lvl := 0; lvl < h; lvl++ {
		for {
			pred, craw, _ := l.walk(key, lvl)
			if core.Marked(craw) {
				continue // pred is being purged: walk again
			}
			// Route c past the successor, then splice. c is unpublished
			// at this level, so the Raw store cannot race a helper; the
			// CAS fails if pred's cell changed — including going marked,
			// which is what makes a splice into a dying column impossible
			// (mark-then-unlink, see the package comment).
			c.cell(lvl).Raw(craw)
			if pred.cell(lvl).CompareAndSwap(craw, unsafe.Pointer(c)) {
				break
			}
		}
	}
	l.raiseTop(h)
}

// purgeIndex is the hmlist purge hook: called exactly once per retiring
// node, after it is unlinked and marked at the bottom, before Retire.
// It removes the node's column (if any) from every level and clears the
// column's n cell last, so no hint can outlive the grace period: a
// Protect on n that validates must have happened before this clear,
// hence before the Retire that follows it.
func (l *List) purgeIndex(t *core.Thread, victim *hmlist.Node) {
	key := victim.Key()
	hops := &l.localFor(t).purgeHops
	// Find the victim's column by node identity at index level 0: splices
	// go bottom-up, so absence there proves the column was never
	// published (unreachable Go garbage the GC will sweep). The probe
	// starts from a live pred (unmarked cell), which the column — linked
	// before this purge began — is reachable from; equal-key columns of
	// older incarnations may precede it, so scan the run.
	var c *column
	for c == nil {
		_, craw, n := l.walk(key, 0)
		*hops += n
		if !core.Marked(craw) {
			c = (*column)(craw)
		}
	}
	for c.n.Load() != unsafe.Pointer(victim) {
		if c.key > key {
			return
		}
		c = (*column)(core.Mask(c.cell(0).Load()))
		*hops++
	}
	// Phase 1: mark every right cell top-down. A failed CAS means a
	// splice landed behind c after we loaded the cell — reload and mark
	// the new successor chain in.
	for lvl := c.h - 1; lvl >= 0; lvl-- {
		for {
			cell := c.cell(lvl)
			raw := cell.Load()
			if core.Marked(raw) || cell.CompareAndSwap(raw, core.WithMark(raw)) {
				break
			}
		}
	}
	// Phase 2: unlink each level. Walkers help, so the walk just retries
	// until c is no longer reachable at the level.
	for lvl := c.h - 1; lvl >= 0; lvl-- {
		l.unlinkIndexLevel(c, lvl, hops)
	}
	// Phase 3: cut the index->node edge. After this store no new hint
	// can name the victim; earlier Protects validated against the
	// pre-clear value and are covered by the Retire ordering.
	c.n.Store(nil)
}

// unlinkIndexLevel removes c (fully marked at lvl) from level lvl: walk
// to the last column below c's key, then scan the equal-key run for c
// from there. A pred cell that goes marked (pred is being purged under
// us) or a lost help-CAS re-walks.
func (l *List) unlinkIndexLevel(c *column, lvl int, hops *int) {
	for {
		pred, craw, n := l.walk(c.key, lvl)
		*hops += n
		for !core.Marked(craw) {
			s := (*column)(craw)
			if s.key > c.key {
				return // c is not reachable at this level
			}
			if s == c {
				if pred.cell(lvl).CompareAndSwap(craw, core.Mask(c.cell(lvl).Load())) {
					return
				}
			} else if rraw := s.cell(lvl).Load(); !core.Marked(rraw) {
				pred = s
			} else if !pred.cell(lvl).CompareAndSwap(craw, core.Mask(rraw)) {
				break
			}
			craw = pred.cell(lvl).Load()
			*hops++
		}
	}
}

// Get returns the value mapped to key. The index descent costs no
// protections; only the final hint hop publishes a reservation, and the
// bottom-layer walk revalidates from there.
func (l *List) Get(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	return l.getInOp(t, key)
}

func (l *List) getInOp(t *core.Thread, key int64) (uint64, bool) {
	for attempt := 0; ; attempt++ {
		start, s := l.hintFor(t, key, attempt)
		v, present, valid := l.b.GetInOpHinted(t, key, start, s)
		if valid {
			return v, present
		}
	}
}

// PutIfAbsent maps key to val only if key is absent.
func (l *List) PutIfAbsent(t *core.Thread, key int64, val uint64) bool {
	t.StartOp()
	defer t.EndOp()
	ok, _, _ := l.putInOp(t, key, val, false)
	return ok
}

// Put maps key to val, overwriting; returns the previous value.
func (l *List) Put(t *core.Thread, key int64, val uint64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	_, old, replaced := l.putInOp(t, key, val, true)
	return old, replaced
}

// putInOp is the upsert body: hinted bottom-layer put, then — if a node
// was published — index column construction under the LINKING bit, with
// the retire handoff resolved by FinishLinking. A replaced victim's
// column is purged by whichever side hmlist's handoff elects; the
// replacement builds its own column exactly like an insert.
func (l *List) putInOp(t *core.Thread, key int64, val uint64, overwrite bool) (inserted bool, old uint64, replaced bool) {
	for attempt := 0; ; attempt++ {
		start, s := l.hintFor(t, key, attempt)
		out, valid := l.b.PutInOpHinted(t, key, val, overwrite, start, s)
		if !valid {
			continue
		}
		if out.New != nil {
			l.linkIndex(t, out.New, key)
			l.b.FinishLinking(t, out.New)
		}
		return out.Inserted, out.Old, out.Replaced
	}
}

// PutBatch upserts every keys[i] inside one protected operation,
// recording replaced values in old[i]/replaced[i] (the ds.BatchPutter
// contract). The batch amortizes the entry/exit protocol; each upsert
// re-descends the index for its own hint, so under NBR a neutralization
// retries only the key it interrupted.
func (l *List) PutBatch(t *core.Thread, keys []int64, vals []uint64, old []uint64, replaced []bool) {
	t.StartOp()
	defer t.EndOp()
	for i, key := range keys {
		_, old[i], replaced[i] = l.putInOp(t, key, vals[i], true)
	}
}

// Delete removes key and returns the value it removed. The bottom layer
// owns the whole removal; the victim's index column is detached by the
// purge hook on whichever side of the handoff retires it.
func (l *List) Delete(t *core.Thread, key int64) (uint64, bool) {
	t.StartOp()
	defer t.EndOp()
	for attempt := 0; ; attempt++ {
		start, s := l.hintFor(t, key, attempt)
		old, removed, valid := l.b.DeleteInOpHinted(t, key, start, s)
		if valid {
			return old, removed
		}
	}
}

// GetBatch looks up every keys[i] inside one protected operation (one
// StartOp/EndOp instead of one per key), recording results in vals[i]
// and present[i]. That is all the batch shares: every key descends the
// index for its own hint, and ascending key order only helps in that
// consecutive descents revisit the upper columns while they are cached.
func (l *List) GetBatch(t *core.Thread, keys []int64, vals []uint64, present []bool) {
	t.StartOp()
	defer t.EndOp()
	for i, key := range keys {
		vals[i], present[i] = l.getInOp(t, key)
	}
}

// RangeCount counts the keys in [lo, hi].
func (l *List) RangeCount(t *core.Thread, lo, hi int64) int {
	n := 0
	l.scanRange(t, lo, hi, func(int64, uint64) bool { n++; return true })
	return n
}

// RangeCollect appends the keys in [lo, hi], ascending, to buf[:0] and
// returns the filled slice. The result is sorted and duplicate-free;
// each reported key was observed present (unmarked and reachable) at
// some point during the scan, and no key absent for the scan's whole
// duration is reported.
func (l *List) RangeCollect(t *core.Thread, lo, hi int64, buf []int64) []int64 {
	buf = buf[:0]
	l.scanRange(t, lo, hi, func(k int64, _ uint64) bool { buf = append(buf, k); return true })
	return buf
}

// RangeCollectKV appends up to max (key, value) pairs from [lo, hi],
// ascending, to keys[:0]/vals[:0] (max <= 0 = unlimited). Values are
// immutable per node and snapshotted while the node is protected, so
// each pair is one the map actually held while the scan ran.
func (l *List) RangeCollectKV(t *core.Thread, lo, hi int64, max int, keys []int64, vals []uint64) ([]int64, []uint64) {
	keys, vals = keys[:0], vals[:0]
	l.scanRange(t, lo, hi, func(k int64, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return max <= 0 || len(keys) < max
	})
	return keys, vals
}

// scanRange walks [lo, hi] as one long operation: each leg descends the
// index for a hint and runs the bottom layer's validated scan from
// there, resuming at the first unemitted key whenever a hop fails
// validation — keys already emitted are never revisited, keeping output
// sorted and unique. Legs that advance reset the hint budget; legs that
// don't burn it down until the walk degrades to the head (progress
// never depends on a fresh hint materializing).
func (l *List) scanRange(t *core.Thread, lo, hi int64, emit func(int64, uint64) bool) {
	if lo > hi {
		return
	}
	t.StartOp()
	defer t.EndOp()
	from := lo
	attempt := 0
	for {
		start, s := l.hintFor(t, from, attempt)
		resume, done := l.b.ScanInOpHinted(t, from, hi, start, s, emit)
		if done {
			return
		}
		if resume > from {
			from, attempt = resume, 0
		} else {
			attempt++
		}
	}
}

// Size counts unmarked bottom-level nodes. Quiescent use only.
func (l *List) Size(t *core.Thread) int { return l.b.Size(t) }
