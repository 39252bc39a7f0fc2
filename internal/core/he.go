package core

// HE is hazard eras (Ramalhete & Correia; paper Alg. 4). Readers reserve
// the current global era instead of a pointer; the publish fence is only
// paid when the era changed since the slot's previous reservation, which
// amortises HP's per-read fence across epoch periods. A node is freeable
// when no reserved era intersects its [birth, retire] lifespan. The read
// and the clear at operation end are HE's cases of Thread.Protect/EndOp.

// reclaimHE gathers reserved eras from every slot. Alg. 4 line 21: the
// reclaimer first advances the era so in-flight operations stop pinning
// the current one.
func (t *Thread) reclaimHE() {
	t.d.epoch.Add(1)
	t.sweepEras(nil)
}
