package core

import (
	"sync/atomic"
	"time"
)

// HPAsym is the paper's baseline of hazard pointers with asymmetric
// fences, modelled on Folly's implementation. Readers publish
// reservations with a *plain* store (a MOV — no fence); the ordering cost
// moves to the reclaimer, which in the original executes sys_membarrier
// to force a barrier on every CPU before scanning.
//
// Substitution: Go has no process-wide membarrier, so the
// reclaimer issues a full fence of its own and then waits AsymDrain
// before scanning, relying on the temporally-bounded-TSO property
// (Morrison & Afek [46]) that a store buffer drains within a bounded,
// sub-microsecond window on real hardware. A reservation that is missed
// anyway is caught by the validation step for newly created reservations,
// and the type-stable arena turns the residual theoretical risk into a
// detectable (not memory-unsafe) event. Under `go test -race` the reader
// store is atomic and the scheme is unconditionally sound. The read and
// the clear at operation end are HPAsym's cases of Thread.Protect/EndOp.

// asymFence is the dummy word the reclaimer RMWs to order itself.
var asymFence atomic.Uint64

// reclaimHPAsym is HP's behind the membarrier substitution: fence
// ourselves, then give every other CPU's store buffer time to drain so
// the readers' plain stores are visible to the scan.
func (t *Thread) reclaimHPAsym() {
	asymFence.Add(1)
	sleepFor(t.d.opts.AsymDrain)
	t.sweepPtrs(nil)
}

// sleepFor waits approximately d without arming a timer (timer resolution
// on Linux is far coarser than the microsecond drains we need).
func sleepFor(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
		// Busy wait; the reclaimer is about to do a full scan anyway, so
		// burning a few microseconds here mirrors the membarrier syscall
		// cost in the original.
	}
}
