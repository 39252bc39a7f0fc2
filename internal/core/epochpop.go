package core

// EpochPOP (paper Alg. 3) runs classic EBR and HazardPtrPOP
// *simultaneously*. Operations announce epochs exactly like EBR (so
// reclamation is normally the cheap minimum-epoch test), while every read
// also maintains a private pointer reservation exactly like HazardPtrPOP
// (no fence). When the EBR path fails to shrink the retire list — the
// signature of a delayed thread pinning the minimum epoch — the reclaimer
// escalates to publish-on-ping and frees around the delayed thread's (now
// published) reservations. No global mode switch: different threads can
// be reclaiming in different modes at the same time, which is the
// paper's key contrast with Qsense. Both per-operation halves are
// EpochPOP's cases of Thread.StartOp/EndOp/Protect.

// reclaimEpochPOP is EBR's pass, then — only if that left too much —
// HazardPtrPOP's (Alg. 3 lines 24-30). A list still at C×threshold
// after the epoch sweep means some thread is pinning an old epoch: ping
// everyone and free around the published reservations instead. A final
// pass escalates if anything at all is left.
func (t *Thread) reclaimEpochPOP(final bool) {
	t.stats.epochReclaims.Add(1)
	t.reclaimEBR(final)
	limit := t.d.opts.CMult * t.d.opts.ReclaimThreshold
	if final {
		limit = 1
	}
	if len(t.retired) >= limit {
		t.stats.popReclaims.Add(1)
		t.reclaimHPPOP()
	}
}
