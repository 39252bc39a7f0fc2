package core

// hpPOPAlgo is HazardPtrPOP (paper Alg. 1–2), the core contribution:
// hazard pointers without the per-read fence. Reads reserve pointers in a
// *private* array (a plain store to an owned cache line — no fence, no
// sharing); reservations are published to the shared SWMR array only when
// a reclaimer pings. The reclaimer pings every thread, waits until each
// has published (or is quiescent — see the package comment on the opSeq
// seqlock), then scans and frees exactly like HP.
//
// From the data structure's point of view the interface is identical to
// HP: the drop-in-replacement property the paper emphasises. The read
// and the polls at the operation's boundaries are the hotHPPOP body of
// Thread.StartOp/EndOp/Protect.
type hpPOPAlgo struct{ baseAlgo }

func (a *hpPOPAlgo) poll(t *Thread) { t.pollPing() }

// reclaim is Alg. 1 lines 19-22: HP's reclaim with the three lines that
// collect publish counters, ping all and wait for all to publish in
// front of the scan.
func (a *hpPOPAlgo) reclaim(t *Thread, _ bool) {
	t.sweepPtrs(t.pingAndWait(popPing))
}
