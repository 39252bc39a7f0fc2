package core

import (
	"sync/atomic"
	"unsafe"
)

// heAlgo is hazard eras (Ramalhete & Correia; paper Alg. 4). Readers
// reserve the current global era instead of a pointer; the publish fence
// is only paid when the era changed since the slot's previous
// reservation, which amortises HP's per-read fence across epoch periods.
// A node is freeable when no reserved era intersects its [birth, retire]
// lifespan.
type heAlgo struct{ baseAlgo }

func (a *heAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	oldEra := t.heCache[slot]
	for {
		p := cell.Load()
		newEra := a.d.epoch.Load()
		if newEra == oldEra {
			return p, true
		}
		// Era moved: publish the new reservation (seq_cst store = fence)
		// and re-read the pointer under it.
		atomic.StoreUint64(&t.sharedEras[slot], newEra)
		t.heCache[slot] = newEra
		oldEra = newEra
	}
}

func (a *heAlgo) endOp(t *Thread) {
	for i := 0; i <= t.hiSlot; i++ {
		if t.heCache[i] != eraNone {
			atomic.StoreUint64(&t.sharedEras[i], eraNone)
			t.heCache[i] = eraNone
		}
	}
}

// reclaim gathers reserved eras from every slot. Alg. 4 line 21: the
// reclaimer first advances the era so in-flight operations stop pinning
// the current one.
func (a *heAlgo) reclaim(t *Thread, _ bool) {
	a.d.epoch.Add(1)
	t.sweepEras(nil)
}
