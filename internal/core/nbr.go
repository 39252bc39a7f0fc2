package core

import (
	"runtime"
	"sync/atomic"
)

// NBR is NBR+ (Singh, Brown & Mashtizadeh [54,57]), the strongest
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

// ackNBR acknowledges a pending neutralization: advance the counter the
// reclaimer is waiting on. Every ack path either restarts the operation
// or has already published its reservations.
func (t *Thread) ackNBR() {
	t.ping.Store(0)
	t.pubCount.Add(1)
	// Yield so the waiting reclaimer resumes promptly (see
	// Thread.answerPing for why this models signal-handler return).
	runtime.Gosched()
}

func (t *Thread) startNBR() {
	if t.ping.Load() != 0 {
		t.ackNBR() // nothing read yet; ack is free
	}
	t.neutral = false
	t.inWrite = false
	t.phase.Store(1)
}

func (t *Thread) endNBR() {
	if t.inWrite {
		t.ExitWritePhase()
	}
	t.phase.Store(0)
	if t.ping.Load() != 0 {
		t.ackNBR() // operation is over; nothing to discard
	}
}

func (t *Thread) pollNBR() {
	// A busy (delayed) thread hit by a neutralization signal: ack now so
	// the reclaimer can proceed, restart when the operation resumes.
	if t.ping.Load() != 0 {
		t.ackNBR()
		t.neutral = true
	}
}

// EnterWritePhase begins an NBR write phase: the reservations currently
// held in the thread's slots are published with one fence and the thread
// becomes immune to neutralization until ExitWritePhase. It returns false
// if the operation was neutralized before the reservations could be
// published, in which case the caller must restart. For every other
// policy it is a no-op returning true.
//
// The write-phase pair holds NBR's bodies rather than calling them: a
// guard and a call would inline into every traversal that brackets a
// write, and move the registers of its hop loop (hmlist.find's grows by
// two moves per hop).
func (t *Thread) EnterWritePhase() bool {
	if t.policy != NBR {
		return true
	}
	if t.neutral || t.ping.Load() != 0 {
		t.neutral = false
		t.ackNBR()
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
		t.ackNBR()
	}
	return true
}

// ExitWritePhase ends an NBR write phase (no-op for other policies). It
// must be called before the operation performs further unprotected reads
// (i.e., before retrying a failed attempt or continuing a traversal).
func (t *Thread) ExitWritePhase() {
	if t.policy != NBR {
		return
	}
	for i := 0; i < MaxSlots; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], nil)
	}
	t.inWrite = false
	t.phase.Store(1)
}

// nbrPing is the neutralization broadcast: ping everyone (the signal
// goes to quiescent threads too; their next StartOp acks it for free),
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

// reclaimNBR neutralizes everyone, then frees around the published
// reservations and its own private ones: only write-phase threads have
// non-empty shared slots (ours included, published at EnterWritePhase),
// and a pass run in our read phase must spare what we still hold
// (collectPtrSet). So the scan is HP's and the broadcast's skip mask is
// not needed.
func (t *Thread) reclaimNBR() {
	t.pingAndWait(nbrPing)
	t.sweepPtrs(nil)
}
