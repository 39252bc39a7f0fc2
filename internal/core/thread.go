package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"pop/internal/padded"
)

// publishWaitLimit bounds how long a reclaimer spins waiting for other
// threads to publish (the paper's Assumption 1: threads publish in
// bounded time after a ping). Exceeding it means a thread is blocked
// inside an operation without polling — a bug in the harness or data
// structure — so we fail loudly rather than hang the test suite.
const publishWaitLimit = 30 * time.Second

// Thread is a per-worker handle into a Domain. All data-structure
// operations happen through a Thread; a Thread has one exclusive owner
// at a time (normally a goroutine; handing it to another needs a
// happens-before edge between the old owner's last use and the new
// owner's first) — and ownership is a lease, not a life
// sentence: Release returns the slot to the domain (donating any
// unreclaimed retires to the orphan queue), after which a different
// goroutine may lease the same slot through TryRegisterThread. The
// domain mutex in the release/lease pair is the happens-before edge
// that hands the slot's private state (and any tid-indexed caches in
// higher layers) from the old tenant to the new one.
//
// The first block of fields is the thread's SWMR (single-writer
// multi-reader) surface: the words reclaimers read. Each is cache-line
// padded so that thread i's announcements never false-share with thread
// j's. The reservation arrays are padded as a group (slots of one thread
// share a writer, so intra-thread sharing is free).
type Thread struct {
	d   *Domain
	tid int

	// --- SWMR surface (read by reclaimers) ---

	// ping is the simulated signal: reclaimers set it, the owner polls it
	// at every Protect and StartOp/EndOp and runs the publish handler.
	// For NBR it doubles as the neutralization flag.
	ping padded.Uint32
	// pubCount counts publish-handler executions (NBR: neutralization
	// acks). Reclaimers compare before/after values to learn that a
	// publish happened after their ping.
	pubCount padded.Uint64
	// opSeq is a seqlock-style operation counter: odd while inside an
	// operation, even while quiescent. Reclaimers use it to treat
	// quiescent threads as published-empty (signal handlers run between
	// operations; polls do not — see the package comment).
	opSeq padded.Uint64
	// phase is NBR's operation phase: 0 quiescent, 1 read phase, 2 write
	// phase (reservations published, neutralization masked).
	phase padded.Uint32
	// resEpoch is the announced epoch for EBR/EpochPOP (eraMax when
	// quiescent).
	resEpoch padded.Uint64
	// ibrLo/ibrHi are IBR's reserved interval.
	ibrLo padded.Uint64
	ibrHi padded.Uint64
	// retiredLen mirrors len(retired) for Domain.Unreclaimed.
	retiredLen padded.Uint32
	// batchedLen mirrors the Crystalline-lite sealed-batch population.
	batchedLen padded.Int64
	// incarnation counts leases of this slot (monotone, bumped by the
	// domain on each lease): tenant k+1 of a reused slot is
	// distinguishable from tenant k even though tid is identical.
	incarnation padded.Uint64

	_          [padded.CacheLine]byte
	sharedPtrs [MaxSlots]unsafe.Pointer // published pointer reservations
	sharedEras [MaxSlots]uint64         // published era reservations
	_          [padded.CacheLine]byte

	// --- private state (owner goroutine only) ---

	localPtrs  [MaxSlots]unsafe.Pointer // private pointer reservations
	localEras  [MaxSlots]uint64         // private era reservations
	hiSlot     int                      // highest slot used since last clear
	opCount    uint64                   // operations started (epoch cadence)
	allocCount uint64                   // allocations (IBR epoch cadence)
	ibrHiCache uint64                   // private mirror of ibrHi
	heCache    [MaxSlots]uint64         // HE: private mirror of sharedEras
	inWrite    bool                     // NBR: inside a write phase
	neutral    bool                     // NBR: neutralization seen by Poll

	retired      []*Header
	maxRetire    int
	sinceReclaim int // retires since the last reclamation attempt

	// crystalline-lite batching state
	batches *batchState

	// leased is the slot's lease state. Guarded by d.mu (never read on
	// hot paths; reclaimer scans rely on the cleared SWMR surface, not
	// on this bit).
	leased bool

	// scratch buffers reused across reclamation passes
	scCounts []uint64
	scSeqs   []uint64
	scSkip   []bool
	scPtrs   map[unsafe.Pointer]struct{}
	scEras   []uint64

	stats Stats

	// statsPub is the atomic mirror of stats (indexed by the m* consts
	// in trace.go), republished by the owner every statsPubEvery
	// operations and at Flush/Release — what StatsSampled aggregates so
	// live samplers never race the owner-only counters above. sincePub
	// is the owner-only cadence counter.
	statsPub [statsMirrorLen]atomic.Uint64
	sincePub uint32
}

// ID returns the thread's dense index within its domain. IDs are slot
// indices: a released slot's ID is reused by its next tenant, so
// tid-indexed caches in higher layers transfer with the lease.
func (t *Thread) ID() int { return t.tid }

// Incarnation returns the slot's lease count: 1 for a slot's first
// tenant, bumped every time the slot is re-leased after a Release.
func (t *Thread) Incarnation() uint64 { return t.incarnation.Load() }

// Domain returns the owning domain.
func (t *Thread) Domain() *Domain { return t.d }

// Release returns the thread's slot to the domain. It must be called by
// the thread's owner, outside any operation (after EndOp); the handle
// must not be used afterwards. The slot becomes re-leasable by any
// goroutine via TryRegisterThread.
//
// Departure is made invisible to reclaimers in two steps:
//
//  1. The SWMR surface is wiped to its quiescent-empty state (shared
//     reservations nil/eraNone, announced epochs and IBR intervals
//     eraMax, NBR phase 0), so any scan — HP/HPAsym/HE pointer or era
//     scans, IBR/Crystalline interval scans, EBR's minimum epoch, the
//     POP pingAllAndWait skip logic — sees exactly what it sees for a
//     quiescent thread. Wiping is idempotent: EndOp already cleared
//     everything a policy publishes, so no reclaimer can be relying on
//     these words at release time.
//  2. The unreclaimed retire list (and Crystalline's sealed batches)
//     is donated to the domain's orphan queue, adopted by a live
//     thread's next reclamation pass — departing threads strand no
//     garbage.
//
// The retires the tenant made since its last pass are not forgotten
// either: they are added to the domain's release debt, and the release
// that carries the debt to ReclaimThreshold runs the policy's ordinary
// pass (which starts by adopting the orphanage) before donating what is
// left. A domain whose tenants all leave long before reaching the
// threshold on their own — a serving front's one-command bursts —
// therefore still reclaims once per ReclaimThreshold retires, at the
// same amortised cost as one long-lived thread, and never more often
// than that however little a pass manages to free.
//
// Monotone counters (opSeq, pubCount, incarnation) are deliberately NOT
// reset: a reclaimer that pinged this slot's old tenant and is still
// waiting observes an operation-boundary crossing (opSeq moved) and
// skips the slot, never attributing a stale reservation — or a stale
// publish count — to the new tenant. A ping word left set by such a
// reclaimer is inert: the next tenant's poll answers it with a publish
// of its own (empty or current) reservations, which is always safe, and
// under NBR with a restart-free ack (startOp acks before anything is
// read).
func (t *Thread) Release() {
	if t.opSeq.Load()%2 == 1 {
		panic("core: Thread.Release inside an operation (call EndOp first)")
	}
	// Claim the lease end first: a double Release panics before the
	// wipe below can disturb anything, and the slot stays off the free
	// list until finishRelease, so no tenant can lease it mid-wipe.
	// (A stale Release issued after the slot was already released AND
	// re-leased is the same contract violation as any other use of a
	// released handle, and is equally undetectable — a handle must
	// never be touched after Release returns.)
	if t.d.beginRelease(t) {
		t.sinceReclaim = t.d.opts.ReclaimThreshold
		t.d.algo.retireHook(t)
	}
	for i := 0; i < MaxSlots; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], nil)
		atomic.StoreUint64(&t.sharedEras[i], eraNone)
		t.localPtrs[i] = nil
		t.localEras[i] = eraNone
		t.heCache[i] = eraNone
	}
	t.resEpoch.Store(eraMax)
	t.ibrLo.Store(eraMax)
	t.ibrHi.Store(eraMax)
	t.phase.Store(0)
	t.ping.Store(0) // best effort; a ping landing after this is inert (see above)
	t.hiSlot = -1
	t.ibrHiCache = 0
	t.inWrite = false
	t.neutral = false
	t.sinceReclaim = 0
	t.d.finishRelease(t)
}

// adoptOrphans transfers retire lists donated by departed threads to t.
// Every policy calls it at the start of its reclamation pass and flush,
// so orphaned garbage is reclaimed by whichever live thread reclaims
// next. Adopted nodes are indistinguishable from t's own retires: their
// headers carry birth/retire eras and the retired flag, which is all
// any policy's free test reads.
func (t *Thread) adoptOrphans() {
	d := t.d
	if d.orphanLen.Load() == 0 {
		return // racy fast path: a missed donation is caught next pass
	}
	d.mu.Lock()
	nodes, batches := d.orphanNodes, d.orphanBatches
	adopted := d.orphanLen.Load()
	d.orphanNodes, d.orphanBatches = nil, nil
	d.orphanLen.Store(0)
	d.orphansAdopted += uint64(adopted)
	d.mu.Unlock()
	if len(nodes) > 0 {
		t.retired = append(t.retired, nodes...)
		if len(t.retired) > t.maxRetire {
			t.maxRetire = len(t.retired)
		}
		t.retiredLen.Store(uint32(len(t.retired)))
	}
	if len(batches) > 0 {
		// Sealed batches adopt wholesale; only a Crystalline domain
		// donates them, so t.batches is non-nil here.
		bs := t.batches
		for _, b := range batches {
			bs.pending += len(b.nodes)
		}
		bs.full = append(bs.full, batches...)
		t.batchedLen.Store(int64(bs.pending))
	}
}

// StatsSnapshot returns the thread's counters. Only meaningful from the
// owner goroutine or after the owner has stopped.
func (t *Thread) StatsSnapshot() Stats {
	s := t.stats
	s.MaxRetire = t.maxRetire
	return s
}

// StartOp marks the beginning of a data-structure operation. Every
// public operation of every data structure calls StartOp/EndOp exactly
// once (retries happen inside the pair).
func (t *Thread) StartOp() {
	t.opSeq.Add(1) // -> odd: active
	t.d.algo.startOp(t)
}

// EndOp marks the end of an operation: reservations are released and the
// thread becomes quiescent.
func (t *Thread) EndOp() {
	t.d.algo.endOp(t)
	// Drop private reservations. Plain stores: the array is owner-only.
	for i := 0; i <= t.hiSlot; i++ {
		t.localPtrs[i] = nil
		t.localEras[i] = eraNone
	}
	t.hiSlot = -1
	t.opSeq.Add(1) // -> even: quiescent (fences the clears above)
	if t.sincePub++; t.sincePub >= statsPubEvery {
		t.sincePub = 0
		t.publishStats()
	}
}

// Protect reads the shared link a into reservation slot `slot` and
// returns the (possibly tag-marked) pointer read. The second result is
// false only under NBR when the operation has been neutralized and must
// restart from its entry point; all other policies always return true
// (the POP algorithms' headline property: no reclamation-induced control
// flow).
func (t *Thread) Protect(slot int, a *Atomic) (unsafe.Pointer, bool) {
	if t.d.opts.Debug && (slot < 0 || slot >= MaxSlots) {
		panic(fmt.Sprintf("core: Protect slot %d out of range", slot))
	}
	if slot > t.hiSlot {
		t.hiSlot = slot
	}
	return t.d.algo.protect(t, slot, a)
}

// OnAlloc stamps a freshly allocated node. typ is the id returned by
// Domain.RegisterType for the node's type.
func (t *Thread) OnAlloc(h *Header, typ uint8) {
	h.Type = typ
	h.BirthEra = t.d.epoch.Load()
	h.RetireEra = 0
	t.allocCount++
	t.d.algo.allocHook(t)
}

// Retire hands an unlinked node to the reclamation layer. The node must
// already be unreachable from the data structure's roots.
func (t *Thread) Retire(h *Header) {
	if !h.retiredFlag.CompareAndSwap(0, 1) {
		panic("core: double retire")
	}
	h.RetireEra = t.d.epoch.Load()
	t.retired = append(t.retired, h)
	if len(t.retired) > t.maxRetire {
		t.maxRetire = len(t.retired)
	}
	t.retiredLen.Store(uint32(len(t.retired)))
	t.stats.Retires++
	t.sinceReclaim++
	t.d.algo.retireHook(t)
	t.retiredLen.Store(uint32(len(t.retired)))
}

// RetireListLen returns the current retire-list length (owner only).
func (t *Thread) RetireListLen() int { return len(t.retired) }

// Poll is a reclamation safepoint for threads that are busy outside
// Protect calls (the harness's "delayed but running" workers). It models
// the fact that a POSIX signal interrupts arbitrary user code.
func (t *Thread) Poll() { t.d.algo.poll(t) }

// EnterWritePhase begins an NBR write phase: the reservations currently
// held in the thread's slots are published with one fence and the thread
// becomes immune to neutralization until ExitWritePhase. It returns false
// if the operation was neutralized before the reservations could be
// published, in which case the caller must restart. For every other
// policy it is a no-op returning true.
func (t *Thread) EnterWritePhase() bool { return t.d.algo.enterWrite(t) }

// ExitWritePhase ends an NBR write phase (no-op for other policies). It
// must be called before the operation performs further unprotected reads
// (i.e., before retrying a failed attempt or continuing a traversal).
func (t *Thread) ExitWritePhase() { t.d.algo.exitWrite(t) }

// Flush attempts a final reclamation pass. Call it once per thread after
// the workload has stopped (all other threads quiescent) to drain retire
// lists for the end-of-run accounting.
func (t *Thread) Flush() {
	t.d.algo.flush(t)
	t.retiredLen.Store(uint32(len(t.retired)))
	t.publishStats() // flushed threads report exact sampled stats
}

// ---------------------------------------------------------------------
// Publish-on-ping machinery (shared by HazardPtrPOP, HazardEraPOP,
// EpochPOP and, as the ack path, NBR).
// ---------------------------------------------------------------------

// publishPtrs is the pointer-reservation "signal handler": copy the
// private array to the shared SWMR array, then advance the publish
// counter. The counter increment is an atomic RMW, so it both fences the
// stores and tells waiting reclaimers the handler completed (paper Alg. 2
// lines 40-43).
func (t *Thread) publishPtrs() {
	for i := 0; i < MaxSlots; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], t.localPtrs[i])
	}
	t.pubCount.Add(1)
	t.stats.Publishes++
}

// publishEras is the era-reservation handler (HazardEraPOP).
func (t *Thread) publishEras() {
	for i := 0; i < MaxSlots; i++ {
		atomic.StoreUint64(&t.sharedEras[i], t.localEras[i])
	}
	t.pubCount.Add(1)
	t.stats.Publishes++
}

// checkPing polls the ping word and runs the given handler if a ping is
// pending. Clearing the flag before publishing means a ping that arrives
// mid-publish is handled by the next poll rather than lost.
//
// After publishing, the thread yields. A POSIX signal handler returns
// control to a *waiting* reclaimer immediately (the reclaimer runs on
// its own core); under GOMAXPROCS < threads the publisher would instead
// keep burning its whole timeslice while the reclaimer sits in the run
// queue, inflating every reclamation by tens of milliseconds. The yield
// restores the paper's prompt-handler semantics at the cost of one
// scheduler call on the (rare) publish path.
func (t *Thread) checkPing(publish func(*Thread)) {
	if t.ping.Load() != 0 {
		t.ping.Store(0)
		publish(t)
		runtime.Gosched()
	}
}

// pingAllAndWait implements collectPublishedCounters + pingAllToPublish +
// waitForAllPublished (paper Alg. 1 lines 19-21, Alg. 2 lines 36-51).
//
// It returns a per-thread skip mask: skip[i] means thread i's shared
// reservations must be ignored (the thread was quiescent, or crossed an
// operation boundary after our ping — in both cases any reservation it
// holds now was created after our victims were unlinked and is therefore
// excluded by the validation step; see the package comment).
//
// While waiting, the caller answers pings directed at itself via
// selfPublish, which is what makes concurrent reclaimers ping each other
// without deadlock (in the paper, signal handlers nest freely).
func (t *Thread) pingAllAndWait(selfPublish func(*Thread)) []bool {
	ts := t.d.threadList()
	n := len(ts)
	t.scCounts = grow(t.scCounts, n)
	t.scSeqs = grow(t.scSeqs, n)
	t.scSkip = growBool(t.scSkip, n)
	counts, seqs, skip := t.scCounts, t.scSeqs, t.scSkip
	t.stats.ThreadsScanned += uint64(n)

	// Collect counters and operation states.
	for i, o := range ts {
		if o == t {
			skip[i] = true // self: scanned from localPtrs/localEras directly
			continue
		}
		counts[i] = o.pubCount.Load()
		seqs[i] = o.opSeq.Load()
		skip[i] = seqs[i]%2 == 0 // quiescent: published-empty
	}

	// Ping (the pthread_kill loop).
	pingStart := time.Now()
	pinged := false
	for i, o := range ts {
		if !skip[i] {
			o.ping.Store(1)
			t.stats.PingsSent++
			pinged = true
		}
	}

	// Wait for every pinged thread to publish or to cross an operation
	// boundary.
	deadline := pingStart.Add(publishWaitLimit)
	for i, o := range ts {
		if skip[i] {
			continue
		}
		for o.pubCount.Load() == counts[i] {
			if o.opSeq.Load() != seqs[i] {
				// The thread left the operation it was in when we pinged;
				// its reservations were cleared at that boundary.
				skip[i] = true
				break
			}
			t.checkPing(selfPublish)
			runtime.Gosched()
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("core: thread %d waited >%v for thread %d to publish (Assumption 1 violated: a thread is blocked inside an operation without polling)", t.tid, publishWaitLimit, o.tid))
			}
		}
	}
	if pinged {
		// Broadcast → last publish: one ping-ack observation per pass
		// that actually pinged (an all-quiescent pass has no ack wait).
		t.d.recordPingAck(pingStart)
	}
	return skip
}

// ---------------------------------------------------------------------
// Scanning and freeing
// ---------------------------------------------------------------------

// collectPtrSet gathers the reservation set for a pointer-based scan.
// skip==nil means scan everyone's shared slots (classic HP/HPAsym);
// otherwise skipped threads are ignored and the caller's own private
// slots are used directly.
func (t *Thread) collectPtrSet(skip []bool) map[unsafe.Pointer]struct{} {
	if t.scPtrs == nil {
		t.scPtrs = make(map[unsafe.Pointer]struct{}, MaxSlots*8)
	}
	set := t.scPtrs
	clear(set)
	ts := t.d.threadList()
	t.stats.ThreadsScanned += uint64(len(ts))
	for i, o := range ts {
		if skip != nil {
			if o == t {
				for s := 0; s < MaxSlots; s++ {
					if p := Mask(t.localPtrs[s]); p != nil {
						set[p] = struct{}{}
					}
				}
				continue
			}
			if i >= len(skip) {
				// A slot created after pingAllAndWait snapshotted the
				// list: every reservation it holds was made after our
				// victims were unlinked, so the POP skip rule applies.
				continue
			}
			if skip[i] {
				continue
			}
		}
		for s := 0; s < MaxSlots; s++ {
			if p := Mask(atomic.LoadPointer(&o.sharedPtrs[s])); p != nil {
				set[p] = struct{}{}
			}
		}
	}
	return set
}

// collectEraList gathers reserved eras for an era-based scan, with the
// same skip semantics as collectPtrSet.
func (t *Thread) collectEraList(skip []bool) []uint64 {
	eras := t.scEras[:0]
	ts := t.d.threadList()
	t.stats.ThreadsScanned += uint64(len(ts))
	for i, o := range ts {
		if skip != nil {
			if o == t {
				for s := 0; s < MaxSlots; s++ {
					if e := t.localEras[s]; e != eraNone {
						eras = append(eras, e)
					}
				}
				continue
			}
			if i >= len(skip) {
				continue // slot created after the ping snapshot (see collectPtrSet)
			}
			if skip[i] {
				continue
			}
		}
		for s := 0; s < MaxSlots; s++ {
			if e := atomic.LoadUint64(&o.sharedEras[s]); e != eraNone {
				eras = append(eras, e)
			}
		}
	}
	t.scEras = eras
	return eras
}

// freeUnreserved frees every retired node whose pointer is absent from
// the reservation set (paper Alg. 2 lines 26-35) and compacts the retire
// list in place. Returns the number freed.
//
// Node pointers equal Header pointers because Header is, by contract, the
// first field of every managed node type.
func (t *Thread) freeUnreserved(set map[unsafe.Pointer]struct{}) int {
	kept := t.retired[:0]
	freed := 0
	for _, h := range t.retired {
		if _, reserved := set[unsafe.Pointer(h)]; reserved {
			kept = append(kept, h)
		} else {
			t.d.free(t, h)
			freed++
		}
	}
	t.retired = kept
	t.stats.Frees += uint64(freed)
	return freed
}

// freeOutsideEras frees every retired node whose [birth,retire] lifespan
// intersects no reserved era (paper Alg. 4 canFree) and compacts.
func (t *Thread) freeOutsideEras(eras []uint64) int {
	kept := t.retired[:0]
	freed := 0
	for _, h := range t.retired {
		if eraListIntersects(eras, h.BirthEra, h.RetireEra) {
			kept = append(kept, h)
		} else {
			t.d.free(t, h)
			freed++
		}
	}
	t.retired = kept
	t.stats.Frees += uint64(freed)
	return freed
}

// eraListIntersects reports whether any reserved era falls within
// [birth, retire].
func eraListIntersects(eras []uint64, birth, retire uint64) bool {
	for _, e := range eras {
		if e >= birth && e <= retire {
			return true
		}
	}
	return false
}

// freeBeforeEpoch frees retired nodes with RetireEra < min (EBR/EpochPOP
// fast path) and compacts.
func (t *Thread) freeBeforeEpoch(min uint64) int {
	kept := t.retired[:0]
	freed := 0
	for _, h := range t.retired {
		if h.RetireEra < min {
			t.d.free(t, h)
			freed++
		} else {
			kept = append(kept, h)
		}
	}
	t.retired = kept
	t.stats.Frees += uint64(freed)
	return freed
}

// minAnnouncedEpoch scans every thread's announced epoch (eraMax when
// quiescent) and returns the minimum.
func (t *Thread) minAnnouncedEpoch() uint64 {
	min := uint64(eraMax)
	ts := t.d.threadList()
	t.stats.ThreadsScanned += uint64(len(ts))
	for _, o := range ts {
		if e := o.resEpoch.Load(); e < min {
			min = e
		}
	}
	return min
}

func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
