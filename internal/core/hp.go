package core

// HP is Michael's classic hazard pointers (paper §2.1): every read of a
// new shared object publishes a reservation with a sequentially
// consistent store — an XCHG on amd64, i.e. a full fence — then
// re-validates that the object is still reachable. The per-read fence is
// exactly the overhead the paper's POP technique removes. The read and
// the clear at operation end are HP's cases of Thread.Protect/EndOp.

// reclaimHP scans every slot's shared reservations: eager publishing
// keeps them current, so there is nobody to ping.
func (t *Thread) reclaimHP() {
	t.sweepPtrs(nil)
}
