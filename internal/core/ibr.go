package core

import "unsafe"

// ibrAlgo is 2GE interval-based reclamation (Wen et al. [60], the "IBR"
// line in the paper's plots). Each operation reserves an era *interval*
// [lo, hi]: lo is the epoch at operation start, hi grows to the current
// epoch whenever a read observes the epoch moved. A node is freeable when
// its [birth, retire] lifespan intersects no thread's reserved interval.
// Robust (a stalled thread pins only nodes overlapping its interval) and
// fence-light (the hi bump is rare), at the cost of tagging every node
// with birth/retire eras.
type ibrAlgo struct{ baseAlgo }

func (a *ibrAlgo) startOp(t *Thread) {
	e := a.d.epoch.Load()
	t.ibrLo.Store(e)
	t.ibrHi.Store(e)
	t.ibrHiCache = e
}

func (a *ibrAlgo) endOp(t *Thread) {
	t.ibrLo.Store(eraMax)
	t.ibrHi.Store(eraMax)
}

func (a *ibrAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	for {
		p := cell.Load()
		e := a.d.epoch.Load()
		if e == t.ibrHiCache {
			return p, true
		}
		// Epoch moved since our last reservation: extend the interval
		// (seq_cst store = fence) and retry the read under it.
		t.ibrHi.Store(e)
		t.ibrHiCache = e
	}
}

func (a *ibrAlgo) allocHook(t *Thread) {
	// IBR advances the global epoch on an allocation cadence.
	if t.allocCount%uint64(a.d.opts.EpochFreq) == 0 {
		a.d.epoch.Add(1)
	}
}

// reclaim frees every retired node whose lifespan intersects no reserved
// interval; a final pass advances the epoch first.
func (a *ibrAlgo) reclaim(t *Thread, final bool) {
	if final {
		a.d.epoch.Add(1)
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
