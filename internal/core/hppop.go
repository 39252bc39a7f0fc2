package core

// HazardPtrPOP (paper Alg. 1–2) is the core contribution: hazard
// pointers without the per-read fence. Reads reserve pointers in a
// *private* array (a plain store to an owned cache line — no fence, no
// sharing); reservations are published to the shared SWMR array only when
// a reclaimer pings. The reclaimer pings every thread, waits until each
// has published (or is quiescent — see the package comment on the opSeq
// seqlock), then scans and frees exactly like HP.
//
// From the data structure's point of view the interface is identical to
// HP: the drop-in-replacement property the paper emphasises. The read
// and the polls at the operation's boundaries are HazardPtrPOP's cases of
// Thread.StartOp/EndOp/Protect.

// reclaimHPPOP is Alg. 1 lines 19-22: HP's reclaim with the three lines
// that collect publish counters, ping all and wait for all to publish in
// front of the scan.
func (t *Thread) reclaimHPPOP() {
	t.sweepPtrs(t.pingAndWait(popPing))
}
