package core

// HazardEraPOP (paper Alg. 5) is hazard eras with the publish-on-ping
// treatment. Reads reserve the current era in a private array — the
// fence HE pays on era change disappears entirely; the reservation
// becomes visible to reclaimers only on ping. Freeing uses HE's lifespan
// test against the published (plus the reclaimer's own private) era
// reservations. The read and the polls at the operation's boundaries are
// HazardEraPOP's cases of Thread.StartOp/EndOp/Protect.

// reclaimHEPOP is HE's — era advance included — with the ping broadcast
// in front of the gather, as HazardPtrPOP's is HP's.
func (t *Thread) reclaimHEPOP() {
	t.d.epoch.Add(1)
	t.sweepEras(t.pingAndWait(popPing))
}
