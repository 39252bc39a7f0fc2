package core

import (
	"context"
	"fmt"
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
// The group presents a single Handles-style lease facade: Acquire
// claims one *group slot* and returns a GroupHandle; the handle leases
// a real Thread in a member domain lazily, on first use of that member
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

	admission                // lease counters + wait queue; its mu also guards the fields below
	handles   []*GroupHandle // one per group slot ever created, reused across leases
	free      []int          // LIFO of released group slots
	releases  uint64
}

// NewDomainGroup creates a group of `members` member domains under one
// lease facade with `slots` group slots. members must be a positive
// power of two (the store's shard→member mapping is a shift); a group
// of 1 is the degenerate, ungrouped case and behaves exactly like a
// lone Domain behind a Handles pool. opts may be nil for defaults and
// applies to every member.
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

// Group returns the handle's group.
func (h *GroupHandle) Group() *DomainGroup { return h.g }

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
	g.admitLocked()
	return h, nil
}

// AcquireWait leases a group slot, blocking while the group is
// saturated: callers queue FIFO and are woken as handles are released.
// It returns ctx.Err() if ctx expires first — the admission-control
// path, identical in discipline to Handles.AcquireWait (eventually
// fair under queued load, not strictly FIFO against line-jumpers).
func (g *DomainGroup) AcquireWait(ctx context.Context) (*GroupHandle, error) {
	var h *GroupHandle
	err := g.acquireWait(ctx, func() (err error) {
		h, err = g.Acquire()
		return err
	})
	return h, err
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
	// Bookkeeping before the slot is actually freed, mirroring
	// Handles.Release: the brief under-count is the safe direction for
	// the peak statistic.
	g.inUse--
	g.mu.Unlock()
	for i, t := range h.threads {
		if t != nil {
			t.Release()
			h.threads[i] = nil
		}
	}
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

// Releases returns the cumulative group-slot release count.
func (g *DomainGroup) Releases() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.releases
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

// Lifecycle aggregates member thread-slot lifecycle counters. Slots,
// Leased, Peak, Releases and the orphanage counters are sums over
// members (Peak is a sum of per-member peaks, an upper bound on the
// true concurrent peak); SlotLeases is the *group-slot* lease vector —
// tenant k of group slot i is (slot i, incarnation k), matching
// GroupHandle.Incarnation.
func (g *DomainGroup) Lifecycle() LifecycleStats {
	var agg LifecycleStats
	for _, d := range g.members {
		l := d.Lifecycle()
		agg.Slots += l.Slots
		agg.Leased += l.Leased
		agg.Peak += l.Peak
		agg.Releases += l.Releases
		agg.OrphanNodes += l.OrphanNodes
		agg.OrphansDonated += l.OrphansDonated
		agg.OrphansAdopted += l.OrphansAdopted
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
