package core

import "unsafe"

// hePOPAlgo is HazardEraPOP (paper Alg. 5): hazard eras with the
// publish-on-ping treatment. Reads reserve the current era in a private
// array — the fence HE pays on era change disappears entirely; the
// reservation becomes visible to reclaimers only on ping. Freeing uses
// HE's lifespan test against the published (plus the reclaimer's own
// private) era reservations.
type hePOPAlgo struct{ baseAlgo }

func (a *hePOPAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	t.pollPing()
	oldEra := t.localEras[slot]
	for {
		p := cell.Load()
		newEra := a.d.epoch.Load()
		if newEra == oldEra {
			return p, true
		}
		t.localEras[slot] = newEra // private: no fence (Alg. 5 line 16)
		oldEra = newEra
	}
}

func (a *hePOPAlgo) startOp(t *Thread) { t.pollPing() }

func (a *hePOPAlgo) endOp(t *Thread) { t.pollPing() }

func (a *hePOPAlgo) poll(t *Thread) { t.pollPing() }

// reclaim is HE's — era advance included — with the ping broadcast in
// front of the gather, as HazardPtrPOP's is HP's.
func (a *hePOPAlgo) reclaim(t *Thread, _ bool) {
	a.d.epoch.Add(1)
	t.sweepEras(t.pingAndWait(popPing))
}
