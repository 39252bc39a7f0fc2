package core

import (
	"sync/atomic"
	"unsafe"
)

// hpAlgo is Michael's classic hazard pointers (paper §2.1): every read of
// a new shared object publishes a reservation with a sequentially
// consistent store — an XCHG on amd64, i.e. a full fence — then
// re-validates that the object is still reachable. The per-read fence is
// exactly the overhead the paper's POP technique removes.
type hpAlgo struct{ baseAlgo }

func (a *hpAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	for {
		p := cell.Load()
		// Publish + fence (seq_cst store), then validate: the reservation
		// must have been globally visible while the pointer was still
		// reachable (§2.1.1 steps 1-3).
		atomic.StorePointer(&t.sharedPtrs[slot], Mask(p))
		if cell.Load() == p {
			return p, true
		}
	}
}

func (a *hpAlgo) endOp(t *Thread) {
	// clear(): drop published reservations so reserved nodes can be freed.
	for i := 0; i <= t.hiSlot; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], nil)
	}
}

// reclaim scans every slot's shared reservations: eager publishing keeps
// them current, so there is nobody to ping.
func (a *hpAlgo) reclaim(t *Thread, _ bool) {
	t.sweepPtrs(nil)
}
