package core

// IBR is 2GE interval-based reclamation (Wen et al. [60], the "IBR" line
// in the paper's plots). Each operation reserves an era *interval*
// [lo, hi]: lo is the epoch at operation start, hi grows to the current
// epoch whenever a read observes the epoch moved. A node is freeable when
// its [birth, retire] lifespan intersects no thread's reserved interval.
// Robust (a stalled thread pins only nodes overlapping its interval) and
// fence-light (the hi bump is rare), at the cost of tagging every node
// with birth/retire eras. The interval's upkeep is IBR's cases of
// Thread.StartOp/EndOp/Protect, and the global epoch advances on an
// allocation cadence (Thread.OnAlloc).

// reclaimIBR frees every retired node whose lifespan intersects no
// reserved interval; a final pass advances the epoch first.
func (t *Thread) reclaimIBR(final bool) {
	if final {
		t.d.epoch.Add(1)
	}
	los, his := t.gatherIntervals()
	t.sweep(func(h *Header) bool { return intervalReserved(los, his, h.BirthEra, h.RetireEra) })
}

// gatherIntervals snapshots every slot's reserved [lo, hi] interval into
// the thread's scratch.
func (t *Thread) gatherIntervals() (los, his []uint64) {
	los, his = t.scCounts[:0], t.scSeqs[:0]
	t.eachSlot(nil, func(o *Thread, _ bool) {
		los = append(los, o.ibrLo.Load())
		his = append(his, o.ibrHi.Load())
	})
	t.scCounts, t.scSeqs = los, his
	return los, his
}

// intervalReserved reports whether [birth, retire] intersects any
// reserved [lo, hi] interval.
func intervalReserved(los, his []uint64, birth, retire uint64) bool {
	for i := range los {
		if los[i] == eraMax {
			continue // quiescent
		}
		if retire >= los[i] && birth <= his[i] {
			return true
		}
	}
	return false
}
