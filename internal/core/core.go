// Package core implements the paper's contribution — the publish-on-ping
// (POP) safe-memory-reclamation algorithms HazardPtrPOP, HazardEraPOP and
// EpochPOP — together with every baseline scheme the paper evaluates
// against: hazard pointers (HP), asymmetric-fence hazard pointers
// (HPAsym, Folly-style), hazard eras (HE), epoch-based reclamation (EBR,
// RCU-style), interval-based reclamation (IBR/2GE), neutralization-based
// reclamation (NBR+), a leaky no-reclamation baseline (NR) and a
// simplified Crystalline-style batch reclaimer.
//
// # The ping substrate (simulating POSIX signals)
//
// The paper delivers "publish your reservations" requests with
// pthread_kill; the receiving signal handler copies the thread's private
// reservation array into shared single-writer multi-reader (SWMR) slots,
// issues one fence, and increments a publish counter. Go cannot interrupt
// a goroutine asynchronously, so this package substitutes safepoint
// polling: every Thread owns a padded ping word that reclaimers set and
// that the thread polls on each Protect (every shared-pointer read, the
// natural unit of reader progress) and at StartOp/EndOp. When the poll
// observes a ping, the thread runs the handler inline. Signal-delivery
// latency in the paper (bounded, per Assumption 1) becomes poll latency
// here (bounded by the gap between consecutive reads).
//
// A real signal handler also runs while a thread is *between* operations;
// a polling thread does not. Each Thread therefore maintains a
// seqlock-style operation counter (opSeq: odd while inside an operation,
// even while quiescent). A reclaimer that observes an even opSeq treats
// the thread as published-empty: EndOp clears reservations before the
// transition, and any reservation made by a later operation can only name
// nodes read after the victim was unlinked, which the standard hazard-
// pointer validation step rejects (the paper's own safety argument,
// Property 2 case t1' < t2').
//
// # Cost fidelity
//
// The asymmetry the paper exploits is preserved on amd64:
//
//   - HP publishes with a sequentially-consistent store (Go's
//     atomic.StoreUintptr compiles to XCHG — a full fence, the same
//     instruction C++ seq_cst stores compile to — and carries no write
//     barrier);
//   - HPAsym publishes with a plain store (MOV) and shifts ordering cost
//     to the reclaimer (see hpasym.go for the membarrier substitution);
//   - the POP algorithms store to a *private* array — one MOV to an owned
//     cache line, with no write barrier — plus one load of an owned ping
//     word, and fence only in the rare publish handler. Under
//     HazardPtrPOP and EpochPOP that read is Thread.TryProtect, which
//     inlines into a traversal's hop loop, so the hop calls nothing.
//
// The reservation words (Thread.localPtrs, Thread.sharedPtrs) are uintptr,
// not unsafe.Pointer, and that is what makes the private store a plain
// MOV: a store of a pointer-typed word checks the collector's write
// barrier first, a cost the C++ original never pays. Untraced words are
// sound because a reservation is only ever compared — collectPtrSet puts
// it in a set, sweepPtrs looks retired nodes up in it — and never
// dereferenced. The node it names stays alive without it: through its
// arena slab (a pool never releases a slab), through a retire list, or
// through the reader's own local, which is where the reserved address came
// from. Go's heap does not move objects, so the address stays that node's
// for as long as any of them holds it.
package core

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"pop/internal/padded"
	"pop/internal/report"
)

// ErrNoSlots is the typed exhaustion error: every one of a domain's
// thread slots is currently leased. Domain.TryRegisterThread and
// DomainGroup.Acquire return errors wrapping it (test with errors.Is).
// Neither blocks: a caller that must wait for a slot bounds its own
// concurrency first, as the serving front's admission semaphore does.
var ErrNoSlots = errors.New("thread capacity exhausted (all slots leased)")

// MaxSlots is the number of reservation slots per thread (the paper's
// MAX_HP). The deepest consumer is the (a,b)-tree, which protects
// grandparent, parent, leaf and a sibling.
const MaxSlots = 8

// maxTypes is the number of distinct node types a domain can free. The
// store layer registers one type per shard (each shard is its own
// structure instance), so the budget accommodates the store's 32-shard
// cap with room for side structures.
const maxTypes = 64

// eraNone is the "no reservation" era value (eras start at 1).
const eraNone = 0

// eraMax marks a quiescent thread's announced epoch.
const eraMax = ^uint64(0)

// Policy selects a reclamation algorithm.
type Policy uint8

// The reclamation policies, in the order the paper's plots list them.
const (
	NR           Policy = iota // no reclamation (leaky baseline)
	HP                         // hazard pointers, per-read fence
	HPAsym                     // hazard pointers with asymmetric fences (Folly-style)
	HE                         // hazard eras
	EBR                        // epoch-based reclamation (RCU-style)
	IBR                        // interval-based reclamation (2GE)
	NBR                        // neutralization-based reclamation (NBR+)
	HazardPtrPOP               // the paper: HP with publish-on-ping
	HazardEraPOP               // the paper: HE with publish-on-ping
	EpochPOP                   // the paper: dual-mode EBR + HazardPtrPOP
	Crystalline                // simplified Crystalline-style batch reclaimer (appendix E)
	numPolicies
)

var policyNames = [numPolicies]string{
	NR: "NR", HP: "HP", HPAsym: "HPAsym", HE: "HE", EBR: "EBR", IBR: "IBR",
	NBR: "NBR", HazardPtrPOP: "HazardPtrPOP", HazardEraPOP: "HazardEraPOP",
	EpochPOP: "EpochPOP", Crystalline: "Crystalline",
}

// String returns the policy's canonical name.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy resolves a case-sensitive policy name.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if n == s {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q", s)
}

// Policies returns all policies in plot order.
func Policies() []Policy {
	out := make([]Policy, numPolicies)
	for i := range out {
		out[i] = Policy(i)
	}
	return out
}

// Robust reports whether the policy bounds unreclaimed garbage in the
// presence of delayed threads (the paper's robustness property).
func (p Policy) Robust() bool {
	switch p {
	case HP, HPAsym, HE, IBR, NBR, HazardPtrPOP, HazardEraPOP, EpochPOP:
		return true
	}
	return false
}

// Options tunes a Domain. The zero value is usable; unset fields take the
// paper's defaults.
type Options struct {
	// ReclaimThreshold is the retire-list length that triggers a
	// reclamation attempt (the paper's reclaimFreq; §5.0.1 uses 24K for
	// the main experiments and 2K for the long-running-reads experiment).
	ReclaimThreshold int
	// EpochFreq is the number of operations (or allocations, for IBR)
	// between global epoch increments.
	EpochFreq int
	// CMult is EpochPOP's escalation factor C: when the retire list
	// reaches CMult*ReclaimThreshold despite epoch reclamation, the
	// publish-on-ping path is engaged (paper Alg. 3 line 26).
	CMult int
	// BatchSize is the Crystalline-lite batch size.
	BatchSize int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ReclaimThreshold <= 0 {
		out.ReclaimThreshold = 24576
	}
	if out.EpochFreq <= 0 {
		out.EpochFreq = 128
	}
	if out.CMult <= 1 {
		out.CMult = 2
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 64
	}
	return out
}

// Domain is one reclamation domain: a policy, a global epoch, and a set
// of thread slots. All threads operating on a data structure must share
// its domain.
//
// Thread identity is a leasable resource, not a birth-to-death property:
// RegisterThread / TryRegisterThread lease a slot (reusing released
// slots before growing toward maxThreads), and Thread.Release returns
// it. A releasing thread donates its unreclaimed retire list to the
// domain's orphan queue; live threads adopt the queue at the start of
// their next reclamation pass (Thread.pass calls Thread.adoptOrphans
// ahead of every policy's reclaim), so no retired node is stranded by a
// departed thread — and the release that brings the retires of departed
// threads to ReclaimThreshold runs that pass itself (beginRelease), so
// the queue is bounded even when no thread lives long enough to reach
// the threshold alone.
type Domain struct {
	policy Policy
	opts   Options

	// epoch is the global era for HE/EBR/IBR/EpochPOP. Starts at 1 so 0
	// can mean "no reservation".
	epoch padded.Uint64

	mu         sync.Mutex
	threads    []*Thread
	maxThreads int

	// Slot lifecycle (mu-guarded). freeSlots is a LIFO of released slot
	// indices; re-leasing prefers it over growing threads so the dense
	// tid space (which ds-layer per-thread caches index by) stays small.
	freeSlots   []int
	leasedCount int
	peakLeased  int
	releases    uint64

	// Orphanage (mu-guarded except orphanLen): retire lists donated by
	// departed threads, awaiting adoption by a live thread's next
	// reclamation pass. orphanBatches holds Crystalline's sealed batches
	// (only a Crystalline domain ever donates them).
	orphanNodes    []*Header
	orphanBatches  []cbatch
	orphansDonated uint64
	orphansAdopted uint64
	orphanLen      padded.Int64 // nodes awaiting adoption (incl. batched)
	// releaseDebt counts retires whose tenants released before a pass of
	// their own accounted for them; see beginRelease.
	releaseDebt int

	freeFns [maxTypes]func(*Thread, *Header)
	ntypes  int

	leaked padded.Int64 // nodes dropped by NR (never freed)

	// Reclamation trace histograms (see trace.go): per-pass ping→ack
	// wait and whole-pass duration, recorded by whichever thread runs
	// the pass. Always on — passes are threshold-gated, so two clock
	// reads per pass are noise.
	pingAckH report.AtomicHistogram
	passDurH report.AtomicHistogram
}

// NewDomain creates a domain for at most maxThreads threads. opts may be
// nil for defaults. An unknown policy panics here, not at a thread's
// first operation: every switch on Thread.policy assumes one of the
// eleven.
func NewDomain(policy Policy, maxThreads int, opts *Options) *Domain {
	if policy >= numPolicies {
		panic("core: unknown policy " + policy.String())
	}
	if maxThreads <= 0 {
		panic("core: maxThreads must be positive")
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	d := &Domain{
		policy:     policy,
		opts:       o.withDefaults(),
		threads:    make([]*Thread, 0, maxThreads),
		maxThreads: maxThreads,
	}
	d.epoch.Store(1)
	return d
}

// Policy returns the domain's reclamation policy.
func (d *Domain) Policy() Policy { return d.policy }

// RegisterType registers the free function for one node type and returns
// the type id to place in Header.Type at allocation. The free function
// receives the reclaiming thread so it can return the node to that
// thread's allocation cache (mimalloc-style sharded frees, which §5.0.1
// identifies as necessary for scalability).
func (d *Domain) RegisterType(free func(*Thread, *Header)) uint8 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ntypes >= maxTypes {
		panic("core: too many node types registered")
	}
	id := uint8(d.ntypes)
	d.freeFns[id] = free
	d.ntypes++
	return id
}

// RegisterThread leases a thread handle, panicking when the domain is
// full (the original, compatibility API; prefer TryRegisterThread where
// capacity exhaustion should be an error, not a crash). The Thread is
// the caller's alone until Release (see Thread on ownership).
func (d *Domain) RegisterThread() *Thread {
	t, err := d.TryRegisterThread()
	if err != nil {
		panic(err.Error())
	}
	return t
}

// TryRegisterThread leases a thread handle: a released slot is re-leased
// first (same dense tid, bumped incarnation); otherwise a new slot is
// created, and an error is returned once maxThreads slots are all
// leased. The handle belongs to the calling goroutine until
// Thread.Release; the lease/release pair is the ownership-transfer edge
// that makes slot (and per-tid cache) reuse safe across goroutines.
func (d *Domain) TryRegisterThread() (*Thread, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.freeSlots); n > 0 {
		t := d.threads[d.freeSlots[n-1]]
		d.freeSlots = d.freeSlots[:n-1]
		d.leaseLocked(t)
		return t, nil
	}
	if len(d.threads) >= d.maxThreads {
		return nil, fmt.Errorf("core: %d-slot domain: %w", d.maxThreads, ErrNoSlots)
	}
	t := &Thread{
		d:      d,
		tid:    len(d.threads),
		policy: d.policy,
		hiSlot: -1,
	}
	t.resEpoch.Store(eraMax)
	t.ibrLo.Store(eraMax)
	t.ibrHi.Store(eraMax)
	// Pre-size the retire list for the common threshold but cap the
	// eager allocation: callers may set a huge threshold to disable
	// reclamation entirely.
	capHint := d.opts.ReclaimThreshold + MaxSlots
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	t.retired = make([]*Header, 0, capHint)
	d.threads = append(d.threads, t)
	d.leaseLocked(t)
	return t, nil
}

// leaseLocked marks slot t leased (d.mu held). The incarnation bump is
// what distinguishes tenants of a reused slot; the SWMR words scanners
// read (opSeq, pubCount) stay monotone across reuse, so reclaimers
// in-flight during a release+re-lease observe ordinary operation
// boundaries, never a counter reset.
//
// A Crystalline lease starts a fresh batchState. By then finishRelease
// has moved the previous tenant's sealed batches to the orphan queue, so
// replacing it discards nothing.
func (d *Domain) leaseLocked(t *Thread) {
	t.leased = true
	t.incarnation.Add(1)
	d.leasedCount++
	if d.leasedCount > d.peakLeased {
		d.peakLeased = d.leasedCount
	}
	if t.policy == Crystalline {
		t.batches = &batchState{}
	}
}

// beginRelease claims the end of t's lease: a double Release panics
// here, BEFORE Thread.Release touches the slot's state, and the slot is
// not re-leasable (not on freeSlots) until finishRelease — so no new
// tenant can appear while the SWMR wipe is in progress.
//
// It also settles the tenant's retire count into the domain's release
// debt and reports whether this release carried the debt to
// ReclaimThreshold, in which case the caller owes one reclamation pass
// (the debt restarts from zero whatever that pass frees: one pass per
// threshold of new retires, never one per release).
func (d *Domain) beginRelease(t *Thread) (passDue bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !t.leased {
		panic("core: Release of a thread handle that is not leased (double release?)")
	}
	t.leased = false
	d.releaseDebt += t.sinceReclaim
	if d.releaseDebt < d.opts.ReclaimThreshold {
		return false
	}
	d.releaseDebt = 0
	return true
}

// finishRelease completes a release begun by beginRelease: donate the
// unreclaimed retire list (and any sealed Crystalline batches) to the
// orphan queue and make the slot re-leasable.
func (d *Domain) finishRelease(t *Thread) {
	d.mu.Lock()
	defer d.mu.Unlock()
	donated := int64(len(t.retired))
	if donated > 0 {
		d.orphanNodes = append(d.orphanNodes, t.retired...)
		t.retired = t.retired[:0]
	}
	if bs := t.batches; bs != nil && len(bs.full) > 0 {
		d.orphanBatches = append(d.orphanBatches, bs.full...)
		donated += int64(bs.pending)
		bs.full = nil
		bs.pending = 0
	}
	if donated > 0 {
		d.orphansDonated += uint64(donated)
		d.orphanLen.Add(donated)
	}
	t.retiredLen.Store(0)
	t.batchedLen.Store(0)
	d.freeSlots = append(d.freeSlots, t.tid)
	d.leasedCount--
	d.releases++
}

// LifecycleStats counts thread-slot lifecycle events: how elastic the
// domain's thread population has been and how much garbage changed
// hands when threads departed.
type LifecycleStats struct {
	Slots          int    // slots ever created (high-water of distinct tids)
	Leased         int    // currently leased slots
	Peak           int    // maximum concurrently leased slots
	Releases       uint64 // cumulative Thread.Release calls
	OrphanNodes    int64  // nodes currently awaiting adoption
	OrphansDonated uint64 // nodes ever donated by departing threads
	OrphansAdopted uint64 // nodes ever adopted by live threads

	// SlotLeases[i] is slot i's cumulative lease count (its current
	// incarnation): the per-slot view of how lease traffic spreads over
	// the dense tid space — per-tenant accounting's ground truth, since
	// tenant k of slot i is exactly (slot i, incarnation k).
	SlotLeases []uint64
}

// Add folds o into l: every counter sums (Peak becomes a sum of peaks,
// an upper bound on the true concurrent peak). SlotLeases is left to
// the caller — slots of different domains do not line up. The one
// aggregation rule behind DomainGroup.Lifecycle.
func (l *LifecycleStats) Add(o LifecycleStats) {
	l.Slots += o.Slots
	l.Leased += o.Leased
	l.Peak += o.Peak
	l.Releases += o.Releases
	l.OrphanNodes += o.OrphanNodes
	l.OrphansDonated += o.OrphansDonated
	l.OrphansAdopted += o.OrphansAdopted
}

// Lifecycle snapshots the domain's thread-lifecycle counters.
func (d *Domain) Lifecycle() LifecycleStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	leases := make([]uint64, len(d.threads))
	for i, t := range d.threads {
		leases[i] = t.incarnation.Load()
	}
	return LifecycleStats{
		Slots:          len(d.threads),
		Leased:         d.leasedCount,
		Peak:           d.peakLeased,
		Releases:       d.releases,
		OrphanNodes:    d.orphanLen.Load(),
		OrphansDonated: d.orphansDonated,
		OrphansAdopted: d.orphansAdopted,
		SlotLeases:     leases,
	}
}

// Threads returns a snapshot of every thread slot ever created,
// including released (unleased) ones — released slots read as quiescent
// and reservation-free, exactly how reclaimer scans see them.
func (d *Domain) Threads() []*Thread {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Thread, len(d.threads))
	copy(out, d.threads)
	return out
}

// snapshot of registered threads without copying; reclaimers iterate this.
// The backing array only ever grows and registration is rare, so reading
// the slice header under the lock once per reclamation pass is cheap.
func (d *Domain) threadList() []*Thread {
	d.mu.Lock()
	ts := d.threads
	d.mu.Unlock()
	return ts
}

// free returns one node to its pool on behalf of reclaiming thread t.
func (d *Domain) free(t *Thread, h *Header) {
	if !h.retiredFlag.CompareAndSwap(1, 0) {
		panic("core: freeing a node that is not retired (double free?)")
	}
	fn := d.freeFns[h.Type]
	if fn == nil {
		panic(fmt.Sprintf("core: no free function registered for type %d", h.Type))
	}
	fn(t, h)
}

// Unreclaimed returns the number of retired-but-unfreed nodes across all
// threads — orphaned retire lists awaiting adoption included — plus
// nodes leaked by NR. It is exact when the domain is quiescent and
// approximate otherwise.
func (d *Domain) Unreclaimed() int64 {
	total := d.leaked.Load() + d.orphanLen.Load()
	for _, t := range d.threadList() {
		total += int64(t.retiredLen.Load()) + t.batchedLen.Load()
	}
	return total
}

// Stats aggregates per-thread statistics. Any goroutine may call it,
// mid-run included: it loads the words the threads add to.
func (d *Domain) Stats() Stats {
	var agg Stats
	for _, t := range d.threadList() {
		agg.Add(t.StatsSnapshot())
	}
	return agg
}

// Stats counts reclamation events. All fields are monotone counters
// except MaxRetire (a high-water mark).
type Stats struct {
	Retires       uint64 // nodes handed to Retire
	Frees         uint64 // nodes returned to their pool
	Reclaims      uint64 // reclamation passes executed
	EpochReclaims uint64 // EpochPOP: passes served by the EBR mode
	POPReclaims   uint64 // EpochPOP: passes that escalated to publish-on-ping
	PingsSent     uint64 // ping words set by this thread's reclamation passes
	// ThreadsScanned counts thread slots examined by reclaim-time scans
	// (ping sweeps, reservation gathers, epoch minima): each full
	// iteration of the domain's thread list adds its length. Divided by
	// Reclaims it is the per-pass fan-out — the quantity domain groups
	// shrink from O(total threads) to O(readers-of-member).
	ThreadsScanned uint64
	Publishes      uint64 // publish-handler executions on this thread
	Restarts       uint64 // NBR: neutralization-induced operation restarts
	MaxRetire      int    // maximum retire-list length observed
}

// ReclaimStats is the reclaimer fan-out view of Stats: how many passes
// ran, how many pings they sent, and how many thread slots they
// examined, with per-pass averages precomputed for reporting. A pass
// may scan the thread list more than once (a POP pass pings, then
// gathers), so ScannedPerPass is a small multiple of the thread count
// in an ungrouped domain — the point of comparison for grouped runs.
type ReclaimStats struct {
	Passes  uint64 // reclamation passes (= Stats.Reclaims)
	Pings   uint64 // ping words set (= Stats.PingsSent)
	Scanned uint64 // thread slots examined (= Stats.ThreadsScanned)

	PingsPerPass   float64 // Pings / Passes (0 when no pass ran)
	ScannedPerPass float64 // Scanned / Passes (0 when no pass ran)
}

// Add folds o into s: every counter sums, MaxRetire (a high-water mark)
// takes the larger. The one aggregation rule behind Domain.Stats,
// DomainGroup.Stats and the telemetry sampler's ring overflow.
func (s *Stats) Add(o Stats) {
	s.Retires += o.Retires
	s.Frees += o.Frees
	s.Reclaims += o.Reclaims
	s.EpochReclaims += o.EpochReclaims
	s.POPReclaims += o.POPReclaims
	s.PingsSent += o.PingsSent
	s.ThreadsScanned += o.ThreadsScanned
	s.Publishes += o.Publishes
	s.Restarts += o.Restarts
	if o.MaxRetire > s.MaxRetire {
		s.MaxRetire = o.MaxRetire
	}
}

// Sub returns the interval delta s − prev of two cumulative snapshots:
// every counter subtracts; MaxRetire stays s's, the current gauge
// (high-water marks don't telescope). Add-ing successive deltas back
// onto the first snapshot reproduces the last.
func (s Stats) Sub(prev Stats) Stats {
	s.Retires -= prev.Retires
	s.Frees -= prev.Frees
	s.Reclaims -= prev.Reclaims
	s.EpochReclaims -= prev.EpochReclaims
	s.POPReclaims -= prev.POPReclaims
	s.PingsSent -= prev.PingsSent
	s.ThreadsScanned -= prev.ThreadsScanned
	s.Publishes -= prev.Publishes
	s.Restarts -= prev.Restarts
	return s
}

// reclaim derives the fan-out view from the counters.
func (s Stats) reclaim() ReclaimStats {
	r := ReclaimStats{Passes: s.Reclaims, Pings: s.PingsSent, Scanned: s.ThreadsScanned}
	if r.Passes > 0 {
		r.PingsPerPass = float64(r.Pings) / float64(r.Passes)
		r.ScannedPerPass = float64(r.Scanned) / float64(r.Passes)
	}
	return r
}

// ReclaimStats snapshots the domain's ping/scan fan-out counters.
func (d *Domain) ReclaimStats() ReclaimStats { return d.Stats().reclaim() }

// Mask clears the tag bits of a (possibly marked) node pointer. Data
// structures tag the two low-order bits (Harris-Michael's mark); the
// reclamation layer always works with masked pointers.
func Mask(p unsafe.Pointer) unsafe.Pointer {
	return unsafe.Pointer(uintptr(p) &^ 3)
}
