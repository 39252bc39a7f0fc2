package core

// EBR is RCU-style epoch-based reclamation (paper Alg. 6): reads are
// free; each operation announces the global epoch on entry and eraMax on
// exit; a reclaimer frees everything retired before the minimum announced
// epoch. Fast — and not robust: one delayed thread pins the minimum epoch
// and stalls reclamation everywhere (the failure mode EpochPOP fixes).
// The per-operation side is EBR's cases of Thread.StartOp/EndOp/Protect;
// what is left here is the pass.

// reclaimEBR frees everything retired before the minimum announced epoch
// (eraMax when quiescent). A final pass advances the epoch first, so
// nodes retired in the current one become eligible once every thread is
// quiescent.
func (t *Thread) reclaimEBR(final bool) {
	if final {
		t.d.epoch.Add(1)
	}
	min := uint64(eraMax)
	t.eachSlot(nil, func(o *Thread, _ bool) {
		if e := o.resEpoch.Load(); e < min {
			min = e
		}
	})
	t.sweep(func(h *Header) bool { return h.RetireEra >= min })
}
