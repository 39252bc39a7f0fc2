package core

import (
	"time"
	"unsafe"
)

// crystAlgo is the appendix-E comparator: a simplified Crystalline-style
// reclaimer (Nikolaev & Ravindran [50]).
//
// Substitution: full Crystalline is a wait-free scheme
// built on batch reference counting with per-slot handshakes. We keep its
// two observable characteristics — (a) retirement in fixed-size *batches*
// whose bookkeeping is amortised across members, and (b) robustness — by
// combining IBR-style interval reservations on the read path with
// batch-granularity freeing: a batch is freed when its aggregate
// [min birth, max retire] interval intersects no thread's reservation.
// Batch granularity gives Crystalline-lite its signature behaviour in the
// plots: cheaper reclamation passes but a coarser memory floor.
type crystAlgo struct{ baseAlgo }

// batchState is a thread's batch bookkeeping.
type batchState struct {
	full    []cbatch
	pending int // nodes across full batches (t.retired holds the open one)
}

type cbatch struct {
	nodes []*Header
	lo    uint64 // min birth era
	hi    uint64 // max retire era
}

func (a *crystAlgo) initThread(t *Thread) { t.batches = &batchState{} }

// Read path: IBR interval reservations (see ibr.go).

func (a *crystAlgo) startOp(t *Thread) {
	e := a.d.epoch.Load()
	t.ibrLo.Store(e)
	t.ibrHi.Store(e)
	t.ibrHiCache = e
}

func (a *crystAlgo) endOp(t *Thread) {
	t.ibrLo.Store(eraMax)
	t.ibrHi.Store(eraMax)
}

func (a *crystAlgo) protect(t *Thread, slot int, cell *Atomic) (unsafe.Pointer, bool) {
	for {
		p := cell.Load()
		e := a.d.epoch.Load()
		if e == t.ibrHiCache {
			return p, true
		}
		t.ibrHi.Store(e)
		t.ibrHiCache = e
	}
}

func (a *crystAlgo) allocHook(t *Thread) {
	if t.allocCount%uint64(a.d.opts.EpochFreq) == 0 {
		a.d.epoch.Add(1)
	}
}

// seal moves the open retire list into a sealed batch once it holds at
// least min nodes.
func (a *crystAlgo) seal(t *Thread, min int) {
	if len(t.retired) < min {
		return
	}
	b := cbatch{nodes: make([]*Header, len(t.retired)), lo: eraMax, hi: 0}
	copy(b.nodes, t.retired)
	for _, h := range b.nodes {
		if h.BirthEra < b.lo {
			b.lo = h.BirthEra
		}
		if h.RetireEra > b.hi {
			b.hi = h.RetireEra
		}
	}
	bs := t.batches
	bs.full = append(bs.full, b)
	bs.pending += len(b.nodes)
	t.batchedLen.Store(int64(bs.pending))
	t.retired = t.retired[:0]
}

func (a *crystAlgo) retireHook(t *Thread) {
	a.seal(t, a.d.opts.BatchSize)
	if t.sinceReclaim >= a.d.opts.ReclaimThreshold {
		t.sinceReclaim = 0
		a.reclaim(t)
	}
}

// reclaim frees whole batches whose aggregate lifespan intersects no
// reserved interval. Released slots read [eraMax, eraMax] (quiescent to
// intervalReserved); a departing thread donates its sealed batches and
// its open tail to the orphan queue, and adoption moves sealed batches
// wholesale into the adopter's batch list (lo/hi eras travel with the
// batch, so the free test is unchanged by the handoff). Adopted open
// tails are sealed here once they add up to a batch: tenants that each
// leave before filling a batch of their own must not keep one from ever
// forming.
func (a *crystAlgo) reclaim(t *Thread) {
	defer a.d.recordPass(time.Now())
	t.stats.Reclaims++
	t.adoptOrphans()
	a.seal(t, a.d.opts.BatchSize)
	ts := t.d.threadList()
	t.stats.ThreadsScanned += uint64(len(ts))
	los := grow(t.scCounts, len(ts))
	his := grow(t.scSeqs, len(ts))
	for i, o := range ts {
		los[i] = o.ibrLo.Load()
		his[i] = o.ibrHi.Load()
	}
	bs := t.batches
	kept := bs.full[:0]
	for _, b := range bs.full {
		if intervalReserved(los, his, b.lo, b.hi) {
			kept = append(kept, b)
			continue
		}
		for _, h := range b.nodes {
			a.d.free(t, h)
		}
		t.stats.Frees += uint64(len(b.nodes))
		bs.pending -= len(b.nodes)
	}
	bs.full = kept
	t.batchedLen.Store(int64(bs.pending))
}

func (a *crystAlgo) flush(t *Thread) {
	// Adopt before sealing: donated open-tail nodes land in t.retired
	// and must make it into a batch, or this flush would strand them.
	t.adoptOrphans()
	// Seal the open tail so everything is batch-resident, then reclaim.
	a.seal(t, 1)
	a.d.epoch.Add(1)
	a.reclaim(t)
}

// Pending returns the number of nodes awaiting reclamation in sealed
// batches (for Unreclaimed accounting).
func (bs *batchState) Pending() int {
	if bs == nil {
		return 0
	}
	return bs.pending
}
