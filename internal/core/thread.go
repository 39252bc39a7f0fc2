package core

import (
	"fmt"
	"math/bits"
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
	// policy is the domain's, copied when the slot is created and never
	// written again: every step that differs between policies is a switch
	// on it (see StartOp). It sits in the padding after the two flags, so
	// no other field's offset depends on it.
	policy Policy

	retired      []*Header
	sinceReclaim int // retires since the last reclamation attempt

	// crystalline-lite batching state
	batches *batchState

	// leased is the slot's lease state. Guarded by d.mu (never read on
	// hot paths; reclaimer scans rely on the cleared SWMR surface, not
	// on this bit).
	leased bool

	// scratch buffers reused across reclamation passes (scCounts/scSeqs
	// double as the interval policies' lo/hi snapshots: they never ping)
	scCounts []uint64
	scSeqs   []uint64
	scSkip   []bool
	scPtrs   map[unsafe.Pointer]struct{}
	scEras   []uint64

	stats counters // owner adds, any goroutine loads (trace.go)
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
//     pingAndWait skip logic — sees exactly what it sees for a
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
// left (Thread.pass, the same pass the threshold gate runs). A domain
// whose tenants all leave long before reaching the threshold on their
// own — a serving front's one-command bursts — therefore still reclaims
// once per ReclaimThreshold retires, at the same amortised cost as one
// long-lived thread, and never more often than that however little a
// pass manages to free.
//
// Monotone counters (opSeq, pubCount, incarnation) are deliberately NOT
// reset: a reclaimer that pinged this slot's old tenant and is still
// waiting observes an operation-boundary crossing (opSeq moved) and
// skips the slot, never attributing a stale reservation — or a stale
// publish count — to the new tenant. A ping word left set by such a
// reclaimer is inert: the next tenant's poll answers it with a publish
// of its own (empty or current) reservations, which is always safe, and
// under NBR with a restart-free ack (StartOp acks before anything is
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
		t.pass(false)
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
// Every pass starts with it (Thread.pass), so orphaned garbage is
// reclaimed by whichever live thread reclaims next. Adopted nodes are
// indistinguishable from t's own retires: their headers carry
// birth/retire eras and the retired flag, which is all any policy's
// free test reads.
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
		t.retiredGrew()
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

// StatsSnapshot returns the thread's counters. Any goroutine may call
// it at any moment: each field is exact as of its load.
func (t *Thread) StatsSnapshot() Stats { return t.stats.load() }

// StartOp marks the beginning of a data-structure operation. Every
// public operation of every data structure calls StartOp/EndOp exactly
// once (retries happen inside the pair).
//
// A policy is its cases in the switches on Thread.policy — StartOp,
// EndOp, Protect, OnAlloc, Retire, Poll, pass, answerPing and
// Domain.leaseLocked, plus NBR's guard on the write-phase pair — with
// nothing between a traversal and the loads and stores the paper counts
// (Alg. 1 line 12, Alg. 3). Its pass body and NBR's phase protocol live
// in the policy's own file.
func (t *Thread) StartOp() {
	t.opSeq.Add(1) // -> odd: active
	switch t.policy {
	case EBR:
		t.announceEpoch()
	case HazardPtrPOP, HazardEraPOP:
		t.pollPing()
	case EpochPOP:
		t.pollPing()
		t.announceEpoch() // Alg. 3 lines 10-13
	case IBR, Crystalline:
		e := t.d.epoch.Load()
		t.ibrLo.Store(e)
		t.ibrHi.Store(e)
		t.ibrHiCache = e
	case NBR:
		t.startNBR()
	}
}

// announceEpoch is EBR's operation entry (paper Alg. 6): every
// EpochFreq-th operation advances the global epoch, and every operation
// announces the epoch it runs in.
func (t *Thread) announceEpoch() {
	t.opCount++
	if t.opCount%uint64(t.d.opts.EpochFreq) == 0 {
		t.d.epoch.Add(1)
	}
	t.resEpoch.Store(t.d.epoch.Load())
}

// EndOp marks the end of an operation: reservations are released and the
// thread becomes quiescent. The policy's part runs first, before the
// private slots are cleared and opSeq goes even.
func (t *Thread) EndOp() {
	switch t.policy {
	case EBR:
		t.resEpoch.Store(eraMax)
	case HazardPtrPOP, HazardEraPOP:
		t.pollPing()
	case EpochPOP:
		t.resEpoch.Store(eraMax)
		t.pollPing()
	case HP:
		// clear(): drop published reservations so reserved nodes can be freed.
		for i := 0; i <= t.hiSlot; i++ {
			atomic.StorePointer(&t.sharedPtrs[i], nil)
		}
	case HPAsym:
		for i := 0; i <= t.hiSlot; i++ {
			storeRelaxed(&t.sharedPtrs[i], nil)
		}
	case HE:
		for i := 0; i <= t.hiSlot; i++ {
			if t.heCache[i] != eraNone {
				atomic.StoreUint64(&t.sharedEras[i], eraNone)
				t.heCache[i] = eraNone
			}
		}
	case IBR, Crystalline:
		t.ibrLo.Store(eraMax)
		t.ibrHi.Store(eraMax)
	case NBR:
		t.endNBR()
	}
	// Drop private reservations. Plain stores: the array is owner-only.
	for i := 0; i <= t.hiSlot; i++ {
		t.localPtrs[i] = nil
		t.localEras[i] = eraNone
	}
	t.hiSlot = -1
	t.opSeq.Add(1) // -> even: quiescent (fences the clears above)
}

// Protect reads the shared link a into reservation slot `slot` and
// returns the (possibly tag-marked) pointer read. The second result is
// false only under NBR when the operation has been neutralized and must
// restart from its entry point; all other policies always return true
// (the POP algorithms' headline property: no reclamation-induced control
// flow).
//
// Every body keeps its protocol's step order — poll, load, reserve,
// validate. The five policies the benchmark's workloads and the paper's
// headline ratios run on are cases here; the other six are one call
// away, in protectOther.
func (t *Thread) Protect(slot int, a *Atomic) (unsafe.Pointer, bool) {
	if uint(slot) >= MaxSlots {
		panic(fmt.Sprintf("core: Protect slot %d out of range", slot))
	}
	if slot > t.hiSlot {
		t.hiSlot = slot
	}
	switch t.policy {
	case NR, EBR:
		// Reads are free: NR never frees, EBR's announced epoch covers
		// everything the operation can reach.
		return a.Load(), true
	case HazardPtrPOP, EpochPOP:
		// The simulated signal: poll our ping word (an owned cache line;
		// the load is the delivery cost) and run the handler if pinged.
		t.pollPing()
		for {
			p := a.Load()
			t.localPtrs[slot] = Mask(p) // private reservation: no fence (Alg. 1 line 12)
			if a.Load() == p {
				return p, true
			}
		}
	case HP:
		for {
			p := a.Load()
			// Publish + fence (seq_cst store), then validate: the
			// reservation must have been globally visible while the
			// pointer was still reachable (§2.1.1 steps 1-3).
			atomic.StorePointer(&t.sharedPtrs[slot], Mask(p))
			if a.Load() == p {
				return p, true
			}
		}
	}
	return t.protectOther(slot, a)
}

// protectOther is Protect for the six policies no benchmark workload runs
// on. It is a call of its own because an eleven-case switch in Protect
// compiles to a jump table, and Protect then spills its arguments ahead
// of it on every hop (docs/ARCHITECTURE.md, "What a hop costs").
func (t *Thread) protectOther(slot int, a *Atomic) (unsafe.Pointer, bool) {
	switch t.policy {
	case HPAsym:
		for {
			p := a.Load()
			storeRelaxed(&t.sharedPtrs[slot], Mask(p)) // no fence: the HPAsym fast path
			if a.Load() == p {
				return p, true
			}
		}
	case HE:
		oldEra := t.heCache[slot]
		for {
			p := a.Load()
			newEra := t.d.epoch.Load()
			if newEra == oldEra {
				return p, true
			}
			// Era moved: publish the new reservation (seq_cst store =
			// fence) and re-read the pointer under it.
			atomic.StoreUint64(&t.sharedEras[slot], newEra)
			t.heCache[slot] = newEra
			oldEra = newEra
		}
	case IBR, Crystalline:
		for {
			p := a.Load()
			e := t.d.epoch.Load()
			if e == t.ibrHiCache {
				return p, true
			}
			// Epoch moved since our last reservation: extend the interval
			// (seq_cst store = fence) and retry the read under it.
			t.ibrHi.Store(e)
			t.ibrHiCache = e
		}
	case NBR:
		if t.neutral || t.ping.Load() != 0 {
			// Neutralized: discard all read-phase pointers and restart.
			t.neutral = false
			t.ackNBR()
			t.stats.restarts.Add(1)
			return nil, false
		}
		p := a.Load()
		// Track privately so EnterWritePhase knows what to publish. Plain
		// store, same cost as the POP algorithms' private reservation.
		t.localPtrs[slot] = Mask(p)
		return p, true
	case HazardEraPOP:
		t.pollPing()
		oldEra := t.localEras[slot]
		for {
			p := a.Load()
			newEra := t.d.epoch.Load()
			if newEra == oldEra {
				return p, true
			}
			t.localEras[slot] = newEra // private: no fence (Alg. 5 line 16)
			oldEra = newEra
		}
	}
	panic("core: unknown policy " + t.policy.String())
}

// OnAlloc stamps a freshly allocated node. typ is the id returned by
// Domain.RegisterType for the node's type.
func (t *Thread) OnAlloc(h *Header, typ uint8) {
	h.Type = typ
	h.BirthEra = t.d.epoch.Load()
	h.RetireEra = 0
	t.allocCount++
	// IBR (and Crystalline, on IBR's read side) advances the global epoch
	// on an allocation cadence.
	if (t.policy == IBR || t.policy == Crystalline) && t.allocCount%uint64(t.d.opts.EpochFreq) == 0 {
		t.d.epoch.Add(1)
	}
}

// Retire hands an unlinked node to the reclamation layer. The node must
// already be unreachable from the data structure's roots.
//
// Every policy but NR then reaches the one threshold gate: a pass per
// ReclaimThreshold retires. NR leaks instead, and Crystalline seals a
// full batch ahead of the gate.
func (t *Thread) Retire(h *Header) {
	if !h.retiredFlag.CompareAndSwap(0, 1) {
		panic("core: double retire")
	}
	h.RetireEra = t.d.epoch.Load()
	t.retired = append(t.retired, h)
	t.retiredGrew()
	t.stats.retires.Add(1)
	t.sinceReclaim++
	switch t.policy {
	case NR:
		t.leak()
	case Crystalline:
		t.seal(t.d.opts.BatchSize)
		fallthrough
	default:
		if t.sinceReclaim >= t.d.opts.ReclaimThreshold {
			t.pass(false)
		}
	}
	t.retiredLen.Store(uint32(len(t.retired)))
}

// retiredGrew republishes the retire list's length after an append and
// raises the MaxRetire word if the list outgrew it; nothing else stores
// that word.
func (t *Thread) retiredGrew() {
	n := uint64(len(t.retired))
	if n > t.stats.maxRetire.Load() {
		t.stats.maxRetire.Store(n)
	}
	t.retiredLen.Store(uint32(n))
}

// RetireListLen returns the current retire-list length (owner only).
func (t *Thread) RetireListLen() int { return len(t.retired) }

// Poll is a reclamation safepoint for threads that are busy outside
// Protect calls (the harness's "delayed but running" workers). It models
// the fact that a POSIX signal interrupts arbitrary user code.
func (t *Thread) Poll() {
	switch t.policy {
	case HazardPtrPOP, HazardEraPOP, EpochPOP:
		t.pollPing()
	case NBR:
		t.pollNBR()
	}
}

// Flush attempts a final reclamation pass. Call it once per thread after
// the workload has stopped (all other threads quiescent) to drain retire
// lists for the end-of-run accounting.
func (t *Thread) Flush() { t.pass(true) }

// pass runs one reclamation pass, and is the only place one begins and
// ends: the threshold gate (Thread.Retire), Release's debt pass and
// Flush all come through here. It restarts the retire count the gate and
// the release debt are measured from, times the pass, counts it, adopts
// the orphanage, runs the policy's body (its reclaim method, in the
// policy's file) and republishes the retire-list length.
//
// final marks Flush's end-of-run pass, after the workload has stopped:
// the policies whose keep rule compares against the global epoch first
// advance it so nodes retired in the current epoch become eligible,
// Crystalline seals its open tail, and EpochPOP escalates if anything
// at all is left.
//
// NR has no pass: it leaks at every retire (Thread.leak), so its list
// is empty at quiescence, its Release never donates orphans, and there
// is nothing to adopt, count or time.
func (t *Thread) pass(final bool) {
	t.sinceReclaim = 0
	if t.policy == NR {
		return
	}
	start := time.Now()
	t.stats.reclaims.Add(1)
	t.adoptOrphans()
	switch t.policy {
	case HP:
		t.reclaimHP()
	case HPAsym:
		t.reclaimHPAsym()
	case HE:
		t.reclaimHE()
	case EBR:
		t.reclaimEBR(final)
	case IBR:
		t.reclaimIBR(final)
	case NBR:
		t.reclaimNBR()
	case HazardPtrPOP:
		t.reclaimHPPOP()
	case HazardEraPOP:
		t.reclaimHEPOP()
	case EpochPOP:
		t.reclaimEpochPOP(final)
	case Crystalline:
		t.reclaimCrystalline(final)
	}
	t.retiredLen.Store(uint32(len(t.retired)))
	t.d.recordPass(start)
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
	t.stats.publishes.Add(1)
}

// publishEras is the era-reservation handler (HazardEraPOP).
func (t *Thread) publishEras() {
	for i := 0; i < MaxSlots; i++ {
		atomic.StoreUint64(&t.sharedEras[i], t.localEras[i])
	}
	t.pubCount.Add(1)
	t.stats.publishes.Add(1)
}

// pollPing is the simulated signal delivery: a load of the owned ping
// word on every Protect and operation boundary, and the handler, out of
// line, when a reclaimer has set it.
func (t *Thread) pollPing() {
	if t.ping.Load() != 0 {
		t.answerPing()
	}
}

// answerPing runs the publish handler for a pending ping. Clearing the
// flag before publishing means a ping that arrives mid-publish is
// handled by the next poll rather than lost.
//
// After publishing, the thread yields. A POSIX signal handler returns
// control to a *waiting* reclaimer immediately (the reclaimer runs on
// its own core); under GOMAXPROCS < threads the publisher would instead
// keep burning its whole timeslice while the reclaimer sits in the run
// queue, inflating every reclamation by tens of milliseconds. The yield
// restores the paper's prompt-handler semantics at the cost of one
// scheduler call on the (rare) publish path.
func (t *Thread) answerPing() {
	t.ping.Store(0)
	if t.policy == HazardEraPOP {
		t.publishEras()
	} else {
		t.publishPtrs()
	}
	runtime.Gosched()
}

// pingRule is the policy-specific part of a ping broadcast: whom it
// pings, and when a pinged slot stops mattering before it has answered.
// (How the waiter answers a ping aimed at itself is not a parameter: it
// polls, like any other busy thread — Thread.Poll.)
type pingRule struct {
	// target reports whether a slot whose opSeq read seq is pinged.
	target func(seq uint64) bool
	// moot reports whether pinged slot o, whose opSeq read seq at the
	// broadcast, no longer needs to answer.
	moot func(o *Thread, seq uint64) bool
}

// popPing is the POP broadcast (paper Alg. 1 lines 19-21, Alg. 2 lines
// 36-51): ping whoever is inside an operation — a quiescent thread is
// published-empty — and stop waiting for a thread that leaves the
// operation it was pinged in, because its reservations were cleared at
// that boundary. Either way any reservation the thread holds afterwards
// was created after our victims were unlinked and is excluded by the
// validation step (see the package comment).
var popPing = pingRule{
	target: func(seq uint64) bool { return seq%2 == 1 },
	moot:   func(o *Thread, seq uint64) bool { return o.opSeq.Load() != seq },
}

// pingAndWait is the one broadcast-and-wait under every policy that
// pings: collect every slot's publish counter and operation state, ping
// the slots rule.target selects (the pthread_kill loop), and wait until
// each pinged slot has answered (pubCount moved) or rule.moot excuses
// it. It returns the per-slot skip mask the reservation walk takes:
// skip[i] means slot i was not pinged, or became moot, or is the caller
// (whose reservations are read from its private slots).
//
// While it waits the caller keeps answering pings aimed at itself by
// polling, which is what lets concurrent reclaimers ping each other
// without deadlock (in the paper, signal handlers nest freely). Under
// NBR the poll acks a neutralization and marks the surrounding operation
// for restart at its next Protect; retire sites run after the write
// phase, so it discards no writes. Without it, two threads whose retires
// trigger reclamation concurrently deadlock in phase 1, each waiting for
// the other's ack (PR 10) — the reason there is one loop, not one per
// policy.
//
// Slot lifecycle audit, for every caller: a released slot is quiescent
// (even opSeq, phase 0), so popPing never pings it and nbrPing never
// waits on it. A slot released — and even re-leased — mid-wait crossed
// an operation boundary: opSeq and pubCount are monotone across reuse
// (Release resets neither), so the wait sees opSeq moved and skips the
// slot rather than reading the new tenant's publishes as the old
// tenant's. A ping word left set on a slot whose tenant departed is
// inert: the next tenant's first poll answers it with a publish of its
// own reservations (always safe), and under NBR StartOp acks it before
// anything has been read, so the ack can neither discard progress nor
// charge a restart to the wrong tenant.
func (t *Thread) pingAndWait(rule pingRule) []bool {
	ts := t.d.threadList()
	n := len(ts)
	t.scCounts, t.scSeqs, t.scSkip = grow(t.scCounts, n), grow(t.scSeqs, n), grow(t.scSkip, n)
	counts, seqs, skip := t.scCounts, t.scSeqs, t.scSkip
	t.stats.threadsScanned.Add(uint64(n))

	for i, o := range ts {
		counts[i], seqs[i] = o.pubCount.Load(), o.opSeq.Load()
		skip[i] = o == t || !rule.target(seqs[i])
	}

	pingStart := time.Now()
	var pings uint64
	for i, o := range ts {
		if !skip[i] {
			o.ping.Store(1)
			pings++
		}
	}
	t.stats.pingsSent.Add(pings)

	deadline := pingStart.Add(publishWaitLimit)
	for i, o := range ts {
		if skip[i] {
			continue
		}
		for o.pubCount.Load() == counts[i] {
			if rule.moot(o, seqs[i]) {
				skip[i] = true
				break
			}
			t.Poll()
			runtime.Gosched()
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("core: thread %d waited >%v for thread %d to answer its ping (Assumption 1 violated: a thread is blocked inside an operation without polling)", t.tid, publishWaitLimit, o.tid))
			}
		}
	}
	if pings > 0 {
		// Broadcast → last answer: one ping-ack observation per pass
		// that actually pinged (an all-quiescent pass has no ack wait).
		t.d.recordPingAck(pingStart)
	}
	return skip
}

// ---------------------------------------------------------------------
// The reservation walk and the sweep
// ---------------------------------------------------------------------

// eachSlot is the one walk a pass makes over the domain's slots to
// gather what they reserve. skip == nil visits every slot's shared
// surface, the caller's included (the eager publishers: HP, HPAsym, HE,
// NBR's write-phase reservations, announced epochs, IBR intervals).
// Otherwise skip is pingAndWait's mask: the caller is visited with
// own == true (read its private slots — nobody pinged it), masked slots
// are not visited, and neither is a slot created after the mask was
// taken: every reservation such a slot holds was made after our victims
// were unlinked, so the POP skip rule applies.
//
// Slot lifecycle audit, for every gather built on this walk: Release
// wipes a slot's whole SWMR surface to what a quiescent thread shows —
// shared pointers nil, shared eras eraNone, announced epoch eraMax,
// interval [eraMax, eraMax] (quiescent to intervalReserved), phase 0 —
// after EndOp already cleared everything the policy publishes. So a
// departed tenant's reservation can never pin a node or the minimum
// epoch, slot churn only ever removes reservations from a scan, and
// whatever a re-leased slot shows was published by its current tenant.
func (t *Thread) eachSlot(skip []bool, visit func(o *Thread, own bool)) {
	ts := t.d.threadList()
	t.stats.threadsScanned.Add(uint64(len(ts)))
	for i, o := range ts {
		switch {
		case skip == nil:
			visit(o, false)
		case o == t:
			visit(o, true)
		case i < len(skip) && !skip[i]:
			visit(o, false)
		}
	}
}

// collectPtrSet gathers the pointer reservations eachSlot(skip) visits.
// A nil-mask walk adds the caller's private slots to its shared ones:
// NBR's read phase reserves only there, and a pass it runs mid-operation
// (hmlist.find retires after ExitWritePhase and keeps walking) may adopt
// an orphan it still holds. HP and HPAsym never write them.
func (t *Thread) collectPtrSet(skip []bool) map[unsafe.Pointer]struct{} {
	if t.scPtrs == nil {
		t.scPtrs = make(map[unsafe.Pointer]struct{}, MaxSlots*8)
	}
	set := t.scPtrs
	clear(set)
	add := func(p unsafe.Pointer) {
		if p = Mask(p); p != nil {
			set[p] = struct{}{}
		}
	}
	t.eachSlot(skip, func(o *Thread, own bool) {
		for s := 0; s < MaxSlots; s++ {
			if o == t {
				add(o.localPtrs[s])
			}
			if !own {
				add(atomic.LoadPointer(&o.sharedPtrs[s]))
			}
		}
	})
	return set
}

// collectEraList gathers the era reservations eachSlot(skip) visits.
func (t *Thread) collectEraList(skip []bool) []uint64 {
	eras := t.scEras[:0]
	t.eachSlot(skip, func(o *Thread, own bool) {
		for s := 0; s < MaxSlots; s++ {
			var e uint64
			if own {
				e = o.localEras[s]
			} else {
				e = atomic.LoadUint64(&o.sharedEras[s])
			}
			if e != eraNone {
				eras = append(eras, e)
			}
		}
	})
	t.scEras = eras
	return eras
}

// sweep is the one retire-list filter: free every retired node keep
// rejects and compact the list in place, retire order kept.
//
// The rejected nodes are freed grouped by address (groupByAddress). A
// pool hands nodes back out in the reverse of the order it got them,
// so the order a pass frees in is the order the next len(retired)
// allocations are placed in. Retire order is allocation order blurred
// by node lifetimes, and a thread's list holds only its own share of
// any stretch of memory, so freeing in retire order thins consecutive
// allocations out a little more with every generation: the 1 024 live
// nodes of a list under HazardPtrPOP drift from 77 pages to ≈ 550 of
// the ≈ 800 its ≈ 50K retired nodes occupy, and a walk over them then
// misses the TLB at every hop. Grouped, nodes allocated together are
// neighbours in memory, as they are under an allocator with per-page
// free lists (the paper's mimalloc), and the list stays on ≈ 130.
func (t *Thread) sweep(keep func(*Header) bool) {
	k := 0
	for i, h := range t.retired {
		if keep(h) {
			// retired[k:i] holds rejected nodes: swap one out of the way.
			t.retired[i] = t.retired[k]
			t.retired[k] = h
			k++
		}
	}
	dead := t.retired[k:]
	groupByAddress(dead)
	for _, h := range dead {
		t.d.free(t, h)
	}
	t.stats.frees.Add(uint64(len(dead)))
	t.retired = t.retired[:k]
}

// addressGroups is how many equal stretches groupByAddress cuts the
// span of a batch into: one page each for 4 MiB of nodes, which is two
// threads' worth of retired 64-byte slots at the default threshold.
const addressGroups = 1024

// groupByAddress permutes hs in place so that the nodes of each of
// addressGroups equal stretches of [lowest, highest address] are
// adjacent and the stretches ascend. It is one counting pass and one
// in-place placement pass (an American-flag sort on a single digit):
// ≈ 0.25 ms for 24K nodes, where a comparison sort takes 2.7 ms, and
// order inside a stretch buys nothing.
func groupByAddress(hs []*Header) {
	if len(hs) < 2 {
		return
	}
	addr := func(h *Header) uintptr { return uintptr(unsafe.Pointer(h)) }
	lo, hi := addr(hs[0]), addr(hs[0])
	for _, h := range hs[1:] {
		lo, hi = min(lo, addr(h)), max(hi, addr(h))
	}
	// The smallest shift with (hi-lo)>>shift < addressGroups.
	shift := bits.Len64(uint64(hi-lo) / addressGroups)
	var next, end [addressGroups]int
	for _, h := range hs {
		end[(addr(h)-lo)>>shift]++
	}
	n := 0
	for g, c := range end {
		next[g] = n
		n += c
		end[g] = n
	}
	// next[g] is the first slot of group g not yet known to hold one of
	// its own; whatever sits there goes to the head of its group.
	for g := range next {
		for i := next[g]; i < end[g]; i = next[g] {
			h := hs[i]
			hg := int((addr(h) - lo) >> shift)
			if hg != g {
				hs[i], hs[next[hg]] = hs[next[hg]], h
			}
			next[hg]++
		}
	}
}

// sweepPtrs frees every retired node whose pointer is absent from the
// gathered reservation set (paper Alg. 2 lines 26-35). Node pointers
// equal Header pointers because Header is, by contract, the first field
// of every managed node type.
func (t *Thread) sweepPtrs(skip []bool) {
	set := t.collectPtrSet(skip)
	t.sweep(func(h *Header) bool {
		_, reserved := set[unsafe.Pointer(h)]
		return reserved
	})
}

// sweepEras frees every retired node whose [birth, retire] lifespan
// holds no gathered era reservation (paper Alg. 4 canFree).
func (t *Thread) sweepEras(skip []bool) {
	eras := t.collectEraList(skip)
	t.sweep(func(h *Header) bool {
		for _, e := range eras {
			if e >= h.BirthEra && e <= h.RetireEra {
				return true
			}
		}
		return false
	})
}

// grow returns s resized to n elements, reusing its backing array when
// it is large enough; callers store the result back so the scratch
// survives the pass.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
