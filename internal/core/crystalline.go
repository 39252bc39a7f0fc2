package core

// Crystalline is the appendix-E comparator: a simplified
// Crystalline-style reclaimer (Nikolaev & Ravindran [50]).
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
//
// The read path and the allocation cadence are IBR's (Crystalline shares
// IBR's cases of Thread.StartOp/EndOp/Protect and OnAlloc); a lease
// starts a fresh batchState (Domain.leaseLocked), and Thread.Retire seals
// a full batch ahead of the threshold gate.

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

// seal moves the open retire list into a sealed batch once it holds at
// least min nodes.
func (t *Thread) seal(min int) {
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

// reclaimCrystalline frees whole batches whose aggregate lifespan
// intersects no reserved interval. A departing thread donates its sealed
// batches and its open tail to the orphan queue, and adoption moves
// sealed batches wholesale into the adopter's batch list (lo/hi eras
// travel with the batch, so the free test is unchanged by the handoff).
// Adopted open tails land in t.retired and are sealed here once they add
// up to a batch: tenants that each leave before filling a batch of their
// own must not keep one from ever forming. A final pass seals whatever
// is open, so everything is batch-resident (or it would strand the
// tail), and advances the epoch.
func (t *Thread) reclaimCrystalline(final bool) {
	if final {
		t.seal(1)
		t.d.epoch.Add(1)
	} else {
		t.seal(t.d.opts.BatchSize)
	}
	los, his := t.gatherIntervals()
	bs := t.batches
	kept := bs.full[:0]
	for _, b := range bs.full {
		if intervalReserved(los, his, b.lo, b.hi) {
			kept = append(kept, b)
			continue
		}
		for _, h := range b.nodes {
			t.d.free(t, h)
		}
		t.stats.frees.Add(uint64(len(b.nodes)))
		bs.pending -= len(b.nodes)
	}
	bs.full = kept
	t.batchedLen.Store(int64(bs.pending))
}
