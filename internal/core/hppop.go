package core

import "unsafe"

// hpPOPAlgo is HazardPtrPOP (paper Alg. 1–2), the core contribution:
// hazard pointers without the per-read fence. Reads reserve pointers in a
// *private* array (a plain store to an owned cache line — no fence, no
// sharing); reservations are published to the shared SWMR array only when
// a reclaimer pings. The reclaimer pings every thread, waits until each
// has published (or is quiescent — see the package comment on the opSeq
// seqlock), then scans and frees exactly like HP.
//
// From the data structure's point of view the interface is identical to
// HP: the drop-in-replacement property the paper emphasises.
type hpPOPAlgo struct{ baseAlgo }

func (a *hpPOPAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	// The simulated signal: poll our ping word (an owned cache line; the
	// load is the delivery cost) and run the handler inline if pinged.
	t.checkPing((*Thread).publishPtrs)
	for {
		p := cell.Load()
		t.localPtrs[slot] = Mask(p) // private reservation: no fence (Alg. 1 line 12)
		if cell.Load() == p {
			return p, true
		}
	}
}

func (a *hpPOPAlgo) startOp(t *Thread) { t.checkPing((*Thread).publishPtrs) }

func (a *hpPOPAlgo) endOp(t *Thread) { t.checkPing((*Thread).publishPtrs) }

func (a *hpPOPAlgo) poll(t *Thread) { t.checkPing((*Thread).publishPtrs) }

// reclaim is Alg. 1 lines 19-22: HP's reclaim with the three lines that
// collect publish counters, ping all and wait for all to publish in
// front of the scan.
func (a *hpPOPAlgo) reclaim(t *Thread, _ bool) {
	t.sweepPtrs(t.pingAndWait(popPing))
}
