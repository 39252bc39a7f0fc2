package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// The reference bodies: startOp/endOp/protect of the five tagged
// policies exactly as they stood behind the algorithm interface before
// Thread's switch took them over (func-value checkPing included). They
// are the oracle TestHotPathDifferential runs the switch against; each
// embeds the policy's real algorithm, so everything else — retireHook,
// poll, reclaim — is shared by both sides of the comparison.

type refNR struct{ algorithm }

func (refNR) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	return cell.Load(), true
}

type refEBR struct{ algorithm }

func (refEBR) startOp(t *Thread) {
	t.opCount++
	if t.opCount%uint64(t.d.opts.EpochFreq) == 0 {
		t.d.epoch.Add(1)
	}
	t.resEpoch.Store(t.d.epoch.Load())
}

func (refEBR) endOp(t *Thread) { t.resEpoch.Store(eraMax) }

func (refEBR) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	return cell.Load(), true
}

type refHP struct{ algorithm }

func (refHP) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	for {
		p := cell.Load()
		atomic.StorePointer(&t.sharedPtrs[slot], Mask(p))
		if cell.Load() == p {
			return p, true
		}
	}
}

func (refHP) endOp(t *Thread) {
	for i := 0; i <= t.hiSlot; i++ {
		atomic.StorePointer(&t.sharedPtrs[i], nil)
	}
}

func refCheckPing(t *Thread, publish func(*Thread)) {
	if t.ping.Load() != 0 {
		t.ping.Store(0)
		publish(t)
		runtime.Gosched()
	}
}

func refPOPProtect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	refCheckPing(t, (*Thread).publishPtrs)
	for {
		p := cell.Load()
		t.localPtrs[slot] = Mask(p)
		if cell.Load() == p {
			return p, true
		}
	}
}

type refHPPOP struct{ algorithm }

func (refHPPOP) startOp(t *Thread) { refCheckPing(t, (*Thread).publishPtrs) }
func (refHPPOP) endOp(t *Thread)   { refCheckPing(t, (*Thread).publishPtrs) }
func (refHPPOP) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	return refPOPProtect(t, slot, cell)
}

type refEpochPOP struct{ algorithm }

func (refEpochPOP) startOp(t *Thread) {
	refCheckPing(t, (*Thread).publishPtrs)
	refEBR{}.startOp(t)
}

func (refEpochPOP) endOp(t *Thread) {
	t.resEpoch.Store(eraMax)
	refCheckPing(t, (*Thread).publishPtrs)
}

func (refEpochPOP) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	return refPOPProtect(t, slot, cell)
}

// UseReferenceBodies routes every thread d leases from now on through
// the algorithm interface, with the reference bodies above behind it.
// Call it before the first RegisterThread; d must be on a tagged policy.
func UseReferenceBodies(d *Domain) {
	switch d.policy {
	case NR:
		d.algo = refNR{d.algo}
	case EBR:
		d.algo = refEBR{d.algo}
	case HP:
		d.algo = refHP{d.algo}
	case HazardPtrPOP:
		d.algo = refHPPOP{d.algo}
	case EpochPOP:
		d.algo = refEpochPOP{d.algo}
	default:
		panic("core: " + d.policy.String() + " has no tag and no reference bodies")
	}
	d.hot = hotGeneric
}

// Tagged reports whether p's threads run the switch's bodies.
func Tagged(p Policy) bool {
	_, tag := newAlgorithm(&Domain{}, p)
	return tag != hotGeneric
}

// PingPending reports whether a reclaimer's ping is waiting for t's next
// poll.
func PingPending(t *Thread) bool { return t.ping.Load() != 0 }
