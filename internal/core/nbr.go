package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// nbrAlgo is NBR+ (Singh, Brown & Mashtizadeh [54,57]), the strongest
// baseline in the paper's plots. Operations are structured into a read
// phase and a write phase:
//
//   - Read phase: reads are plain loads with no published reservations. A
//     reclaimer that wants to free memory "neutralizes" all threads (a
//     signal in the original; the ping word here); a neutralized thread in
//     its read phase discards everything it has read and restarts the
//     operation from its entry point (Protect returns ok=false).
//   - Write phase: before performing writes the operation publishes the
//     pointers it needs (HP-style, one fence via EnterWritePhase) and
//     becomes immune to neutralization until ExitWritePhase. Reclaimers
//     skip the published reservations instead of waiting.
//
// This is what makes NBR+ the fastest scheme on short operations and the
// slowest on long-running reads (paper Fig. 4): every reclamation event
// throws away all concurrent read-phase progress.
type nbrAlgo struct{ baseAlgo }

// ack acknowledges a pending neutralization: advance the counter the
// reclaimer is waiting on. Every ack path either restarts the operation
// or has already published its reservations.
func nbrAck(t *Thread) {
	t.ping.Store(0)
	t.pubCount.Add(1)
	// Yield so the waiting reclaimer resumes promptly (see
	// Thread.answerPing for why this models signal-handler return).
	runtime.Gosched()
}

func (a *nbrAlgo) startOp(t *Thread) {
	if t.ping.Load() != 0 {
		nbrAck(t) // nothing read yet; ack is free
	}
	t.neutral = false
	t.inWrite = false
	t.phase.Store(1)
}

func (a *nbrAlgo) endOp(t *Thread) {
	if t.inWrite {
		a.exitWrite(t)
	}
	t.phase.Store(0)
	if t.ping.Load() != 0 {
		nbrAck(t) // operation is over; nothing to discard
	}
}

func (a *nbrAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	if t.neutral || t.ping.Load() != 0 {
		// Neutralized: discard all read-phase pointers and restart.
		t.neutral = false
		nbrAck(t)
		t.stats.restarts.Add(1)
		return nil, false
	}
	p := cell.Load()
	// Track privately so EnterWritePhase knows what to publish. Plain
	// store, same cost as the POP algorithms' private reservation.
	t.localPtrs[slot] = Mask(p)
	return p, true
}

func (a *nbrAlgo) poll(t *Thread) {
	// A busy (delayed) thread hit by a neutralization signal: ack now so
	// the reclaimer can proceed, restart when the operation resumes.
	if t.ping.Load() != 0 {
		nbrAck(t)
		t.neutral = true
	}
}

func (a *nbrAlgo) enterWrite(t *Thread) bool {
	if t.neutral || t.ping.Load() != 0 {
		t.neutral = false
		nbrAck(t)
		t.stats.restarts.Add(1)
		return false
	}
	// Publish the read-phase reservations (the one fence NBR pays per
	// update), then mask neutralization by entering phase 2.
	for i := 0; i <= t.hiSlot; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], t.localPtrs[i])
	}
	t.phase.Store(2)
	t.inWrite = true
	// A ping that raced with the publish: our reservations are visible,
	// so ack without restarting (the reclaimer scans them).
	if t.ping.Load() != 0 {
		nbrAck(t)
	}
	return true
}

func (a *nbrAlgo) exitWrite(t *Thread) {
	for i := 0; i < MaxSlots; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], nil)
	}
	t.inWrite = false
	t.phase.Store(1)
}

// nbrPing is the neutralization broadcast: ping everyone (the signal
// goes to quiescent threads too; their next startOp acks it for free),
// and stop waiting for a thread that is quiescent or in a write phase —
// never wait on phase 2: its reservations are published, and it may be
// blocked on a lock we hold.
var nbrPing = pingRule{
	target: func(uint64) bool { return true },
	moot: func(o *Thread, _ uint64) bool {
		ph := o.phase.Load()
		return ph == 0 || ph == 2
	},
}

// reclaim neutralizes everyone, then frees around the published
// reservations: only write-phase threads have non-empty shared slots
// (our own included, published at EnterWrite), so the scan is HP's and
// the broadcast's skip mask is not needed.
func (a *nbrAlgo) reclaim(t *Thread, _ bool) {
	t.pingAndWait(nbrPing)
	t.sweepPtrs(nil)
}
