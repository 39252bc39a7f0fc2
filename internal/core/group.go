package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// DomainGroup partitions one logical reclamation domain into member
// domains so that reclaim-time ping/scan fan-out is bounded by the
// threads actually reading a member's structures, not by the total
// thread population. A sharded store maps shards onto members; a
// reclaimer inside member m then pings and scans only m's registrants —
// O(readers-of-shard) instead of O(total threads) — which is exactly
// the multiplier that flattens POP's 64+-thread curves when one domain
// backs many shards.
//
// Leasing is two layers. A Domain owns thread slots and a non-blocking
// lease (TryRegisterThread / Thread.Release); the group owns blocking
// admission on top of it, and is the one lease facade serving code
// uses: Acquire claims one *group slot* and returns a GroupHandle,
// AcquireWait queues for one, and the handle leases a real Thread in a
// member domain lazily, on first use of that member
// (GroupHandle.Member). A worker that only ever touches one shard
// therefore occupies exactly one member's thread list, and every other
// member's reclaimers never see it at all. Release returns every
// member thread the handle leased (each member donates its unreclaimed
// retires to its own orphanage, so the per-member Unreclaimed bounds
// are preserved) and frees the group slot.
//
// Membership invariant (safety): a thread's protected operation only
// touches structures registered in the member domain whose Thread
// performed it. The store layer guarantees this by construction —
// every store operation resolves the shard first and runs on that
// shard's member thread, and batched operations (GetBatch/PutBatch/
// Scan) visit shards sequentially, one member op at a time. A
// goroutine is consequently mid-operation in at most one member at any
// instant: its threads in all other members are quiescent (even
// opSeq), which reclaimers there skip without pinging, and a reclaimer
// spinning in pingAllAndWait inside member j can never be waiting on a
// publish from a thread stuck inside member k — no cross-member
// deadlock, and no cross-member fan-out.
//
// Each member is created with the full group-slot capacity, so a lazy
// member lease cannot fail: at most one member thread exists per
// (group slot, member) pair, and group slots are not re-leasable until
// the departing handle has released all its member threads.
type DomainGroup struct {
	members []*Domain
	slots   int

	// mu guards the slot table, the lease counters and the admission
	// queue, so an uncontended Acquire or Release takes one mutex.
	mu       sync.Mutex
	handles  []*GroupHandle // one per group slot ever created, reused across leases
	free     []int          // LIFO of released group slots
	inUse    int
	peak     int
	acquires uint64
	releases uint64
	waits    uint64          // AcquireWait rounds that had to queue
	waiters  []chan struct{} // FIFO admission queue (buffered-1 wakeup tokens)
}

// NewDomainGroup creates a group of `members` member domains under one
// lease facade with `slots` group slots. members must be a positive
// power of two (the store's shard→member mapping is a shift); a group
// of 1 is the degenerate, ungrouped case: one flat Domain (Member(0),
// which structures are built on) behind the blocking lease facade, with
// every read-side method reporting that domain's own numbers. opts may
// be nil for defaults and applies to every member.
func NewDomainGroup(policy Policy, members, slots int, opts *Options) *DomainGroup {
	if members <= 0 || members&(members-1) != 0 {
		panic(fmt.Sprintf("core: group members must be a positive power of two, got %d", members))
	}
	if slots <= 0 {
		panic("core: group slots must be positive")
	}
	g := &DomainGroup{
		members: make([]*Domain, members),
		slots:   slots,
	}
	for i := range g.members {
		// Full group capacity per member: a handle leases at most one
		// thread here, so Member can never hit ErrNoSlots.
		g.members[i] = NewDomain(policy, slots, opts)
	}
	return g
}

// Members returns the number of member domains.
func (g *DomainGroup) Members() int { return len(g.members) }

// Member returns member domain i.
func (g *DomainGroup) Member(i int) *Domain { return g.members[i] }

// Policy returns the group's reclamation policy.
func (g *DomainGroup) Policy() Policy { return g.members[0].Policy() }

// Cap returns the group-slot capacity.
func (g *DomainGroup) Cap() int { return g.slots }

// GroupHandle is one leased group slot: the group-level analogue of a
// Thread handle. Between Acquire and Release it has one exclusive
// owner — the goroutine that acquired it, unless it is handed over
// across a happens-before edge (the same rule as a Thread). Member
// lazily leases the per-member Thread the caller runs protected
// operations on.
type GroupHandle struct {
	g       *DomainGroup
	slot    int
	leased  bool
	leases  uint64
	threads []*Thread // lazily leased member threads, indexed by member
}

// Slot returns the handle's dense group-slot index, stable across
// release/re-lease — the group-level tid for slot-indexed caches.
func (h *GroupHandle) Slot() int { return h.slot }

// Incarnation returns the slot's cumulative lease count; (Slot,
// Incarnation) names this tenancy uniquely, mirroring
// Thread.Incarnation.
func (h *GroupHandle) Incarnation() uint64 { return h.leases }

// Member returns the handle's thread in member domain i, leasing it on
// first use. Lazy leasing is what keeps member thread lists short: a
// worker that never touches member i never appears in i's reclaimer
// scans.
func (h *GroupHandle) Member(i int) *Thread {
	if t := h.threads[i]; t != nil {
		return t
	}
	t, err := h.g.members[i].TryRegisterThread()
	if err != nil {
		// Impossible by construction (member capacity == group-slot
		// capacity, ≤ 1 thread per slot per member) unless the member
		// domain is also used outside the group facade.
		panic(fmt.Sprintf("core: member %d lease failed for group slot %d: %v", i, h.slot, err))
	}
	h.threads[i] = t
	return t
}

// MemberLeased returns the handle's thread in member i if one has been
// leased, else nil — the non-leasing observer for flush/stat paths.
func (h *GroupHandle) MemberLeased(i int) *Thread { return h.threads[i] }

// Flush drains the retire lists of every member thread this handle has
// leased (Thread.Flush per member).
func (h *GroupHandle) Flush() {
	for _, t := range h.threads {
		if t != nil {
			t.Flush()
		}
	}
}

// Drain is the end-of-run flush: it leases the handle's thread in
// every member it has not touched yet, then flushes all of them — so
// orphan retire lists donated to any member by departed tenants are
// adopted and reclaimed even if this handle's workload never visited
// that member. Use Flush for the lazy variant that preserves the
// handle's membership footprint.
func (h *GroupHandle) Drain() {
	for i := range h.threads {
		h.Member(i).Flush()
	}
}

// Poll answers pending pings on every member thread this handle has
// leased. Call it from code that runs long outside protected
// operations.
func (h *GroupHandle) Poll() {
	for _, t := range h.threads {
		if t != nil {
			t.Poll()
		}
	}
}

// Acquire leases a group slot for the calling goroutine. When every
// slot is leased it fails with an error wrapping ErrNoSlots.
func (g *DomainGroup) Acquire() (*GroupHandle, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var h *GroupHandle
	if n := len(g.free); n > 0 {
		h = g.handles[g.free[n-1]]
		g.free = g.free[:n-1]
	} else if len(g.handles) < g.slots {
		h = &GroupHandle{
			g:       g,
			slot:    len(g.handles),
			threads: make([]*Thread, len(g.members)),
		}
		g.handles = append(g.handles, h)
	} else {
		return nil, fmt.Errorf("core: %d-slot domain group: %w", g.slots, ErrNoSlots)
	}
	h.leased = true
	h.leases++
	g.inUse++
	g.acquires++
	if g.inUse > g.peak {
		g.peak = g.inUse
	}
	return h, nil
}

// AcquireWait leases a group slot, blocking while the group is
// saturated: callers queue FIFO and are woken as handles are released.
// It returns ctx.Err() if ctx expires first. This is the
// admission-control primitive — a caller population larger than the
// slot population queues for slots instead of erroring — so the only
// error a healthy (deadline-free) caller can see is its own context's.
//
// Wakeups are handed to waiters in queue order, but a woken waiter
// re-runs Acquire and can lose the slot to a concurrent non-waiting
// Acquire; it then re-queues at the tail. Admission is therefore
// eventually fair under queued load, not strictly FIFO against
// line-jumpers.
func (g *DomainGroup) AcquireWait(ctx context.Context) (*GroupHandle, error) {
	for {
		if h, err := g.Acquire(); !errors.Is(err, ErrNoSlots) {
			return h, err
		}
		w := make(chan struct{}, 1)
		g.mu.Lock()
		g.waiters = append(g.waiters, w)
		g.waits++
		g.mu.Unlock()
		// Re-try after enqueueing: a Release between the failed Acquire
		// above and the enqueue would have seen an empty queue and woken
		// nobody; this second look closes that window.
		if h, err := g.Acquire(); !errors.Is(err, ErrNoSlots) {
			g.abandonWait(w)
			return h, err
		}
		select {
		case <-w:
			// Woken by a Release: loop and contend for the freed slot.
		case <-ctx.Done():
			g.abandonWait(w)
			return nil, ctx.Err()
		}
	}
}

// abandonWait removes w from the admission queue. If w was already
// popped and signalled, the wakeup token is forwarded to the next
// waiter so a cancelled waiter never swallows an admission.
func (g *DomainGroup) abandonWait(w chan struct{}) {
	g.mu.Lock()
	for i, x := range g.waiters {
		if x == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			g.mu.Unlock()
			return
		}
	}
	g.mu.Unlock()
	// Not queued ⇒ signalLocked already sent w its token (the send
	// happens under the lock we just held), so this receive cannot block.
	<-w
	g.mu.Lock()
	g.signalLocked()
	g.mu.Unlock()
}

// signalLocked pops the head waiter and hands it a wakeup token (mu
// held; the channels are buffered so the send never blocks).
func (g *DomainGroup) signalLocked() {
	if len(g.waiters) == 0 {
		return
	}
	w := g.waiters[0]
	g.waiters = g.waiters[1:]
	w <- struct{}{}
}

// Release returns h's group slot. Every member thread the handle
// leased is released first — each member's Thread.Release donates that
// member's unreclaimed retires to that member's orphanage, so orphan
// adoption stays member-local — and only then does the slot become
// re-leasable (keeping the ≤-1-thread-per-member-per-slot invariant),
// after which the head AcquireWait waiter, if any, is woken. Must be
// called by h's owner; h must not be used afterwards.
func (g *DomainGroup) Release(h *GroupHandle) {
	g.mu.Lock()
	if !h.leased {
		g.mu.Unlock()
		panic("core: Release of a group handle that is not leased (double release?)")
	}
	h.leased = false
	// Bookkeeping before the slot is actually freed: once the slot is
	// on the free list a concurrent Acquire can succeed, and counting
	// ourselves out afterwards would let InUse/Peak overshoot the true
	// concurrency. The brief under-count in this order is the safe
	// direction for a peak statistic.
	g.inUse--
	g.mu.Unlock()
	for i, t := range h.threads {
		if t != nil {
			t.Release()
			h.threads[i] = nil
		}
	}
	// Wake after the slot is genuinely free, so the woken waiter's
	// Acquire can succeed immediately.
	g.mu.Lock()
	g.free = append(g.free, h.slot)
	g.releases++
	g.signalLocked()
	g.mu.Unlock()
}

// Do acquires a handle, runs fn with it, and releases it.
func (g *DomainGroup) Do(fn func(*GroupHandle) error) error {
	h, err := g.Acquire()
	if err != nil {
		return err
	}
	defer g.Release(h)
	return fn(h)
}

// InUse returns the number of leases currently held.
func (g *DomainGroup) InUse() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse
}

// Peak returns the maximum concurrently held leases seen.
func (g *DomainGroup) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Acquires returns the cumulative lease count (lease churn).
func (g *DomainGroup) Acquires() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acquires
}

// Releases returns the cumulative group-slot release count.
func (g *DomainGroup) Releases() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.releases
}

// Waits returns how many AcquireWait calls found every slot leased and
// queued (each re-queue after losing a woken race counts again): the
// admission-queue pressure statistic.
func (g *DomainGroup) Waits() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waits
}

// Waiting returns the current admission-queue length.
func (g *DomainGroup) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// Stats aggregates reclamation statistics across all member domains.
func (g *DomainGroup) Stats() Stats {
	var agg Stats
	for _, d := range g.members {
		agg.Add(d.Stats())
	}
	return agg
}

// ReclaimStats aggregates the per-pass fan-out counters across members
// — the figure of merit for grouping: ScannedPerPass at G members
// should be ~1/G of the ungrouped value for the same workload.
func (g *DomainGroup) ReclaimStats() ReclaimStats { return g.Stats().reclaim() }

// Unreclaimed sums retired-but-unfreed nodes across members (each
// member's orphanage included), preserving the per-member bound the
// robust policies guarantee.
func (g *DomainGroup) Unreclaimed() int64 {
	var total int64
	for _, d := range g.members {
		total += d.Unreclaimed()
	}
	return total
}

// Lifecycle aggregates member thread-slot lifecycle counters
// (LifecycleStats.Add over members); SlotLeases is the *group-slot*
// lease vector — tenant k of group slot i is (slot i, incarnation k),
// matching GroupHandle.Incarnation.
func (g *DomainGroup) Lifecycle() LifecycleStats {
	var agg LifecycleStats
	for _, d := range g.members {
		agg.Add(d.Lifecycle())
	}
	g.mu.Lock()
	leases := make([]uint64, len(g.handles))
	for i, h := range g.handles {
		leases[i] = h.leases
	}
	g.mu.Unlock()
	agg.SlotLeases = leases
	return agg
}
