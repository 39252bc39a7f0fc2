package skiplist_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/ds/dstest"
	"pop/internal/ds/skiplist"
	"pop/internal/rng"
)

// TestChurnStorm is the thread-lifecycle acceptance storm: goroutines
// continuously lease a handle from a one-member group, perform protected
// map operations that retire nodes (overwrites and deletes), and
// release the handle mid-stream — donating their unreclaimed retire
// lists — while long-lived scanner threads run range scans over the
// same structure (reservations live across every churn event). After
// the storm a flush must return live nodes to baseline: Outstanding
// (allocations minus frees) equal to the surviving key count, i.e. no
// node stranded on a departed thread's retire list and no node freed
// out from under a scanner via stale-reservation attribution across
// slot reuse.
func TestChurnStorm(t *testing.T) {
	legs := 12
	if os.Getenv("SKIPLIST_HAMMER") != "" {
		legs = 120
	}
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			churnStorm(t, p, 4, 2, legs, 400)
		})
	}
}

// churnStorm runs one policy's storm: churners × legs leases, each leg
// doing ops mixed operations, against scanners running range scans.
func churnStorm(t *testing.T, p core.Policy, churners, scanners, legs, ops int) {
	const keyRange = 512
	pool := core.NewDomainGroup(p, 1, churners+scanners+1, &core.Options{
		ReclaimThreshold: 64,
		EpochFreq:        16,
		BatchSize:        16,
	})
	d := pool.Member(0)
	l := skiplist.New(d)

	// Prefill so scans see a populated structure from the start.
	seedH, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	seed := seedH.Member(0)
	for k := int64(0); k < keyRange; k += 2 {
		l.PutIfAbsent(seed, k, uint64(k))
	}

	var (
		churnWG sync.WaitGroup
		scanWG  sync.WaitGroup
		stop    = make(chan struct{})
	)
	for s := 0; s < scanners; s++ {
		h, err := pool.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		scanWG.Add(1)
		go func(id int, h *core.GroupHandle) {
			defer scanWG.Done()
			th := h.Member(0)
			r := rng.New(uint64(id)*0x9e3779b97f4a7c15 + 0x5ca9)
			for {
				select {
				case <-stop:
					th.Flush()
					pool.Release(h)
					return
				default:
				}
				lo := r.Intn(keyRange)
				dstest.ScanCount(l, th, lo, lo+64)
			}
		}(s, h)
	}

	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(id int) {
			defer churnWG.Done()
			r := rng.New(uint64(id)*0xff51afd7ed558ccd + 0xc0a1)
			for leg := 0; leg < legs; leg++ {
				h, err := pool.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				th := h.Member(0)
				for i := 0; i < ops; i++ {
					k := r.Intn(keyRange)
					switch r.Intn(4) {
					case 0:
						l.PutIfAbsent(th, k, uint64(k))
					case 1:
						l.Put(th, k, uint64(leg)<<32|uint64(i)) // overwrite: retires
					case 2:
						l.Delete(th, k)
					default:
						l.Get(th, k)
					}
				}
				// Depart mid-stream: the retire list this leg accumulated
				// is donated for adoption, the slot becomes re-leasable.
				pool.Release(h)
			}
		}(c)
	}
	churnWG.Wait()
	close(stop)
	scanWG.Wait()

	// Final drain: the surviving seed thread adopts all orphans and
	// flushes; then the shared invariant checker takes over (the
	// scenario-specific assertion that churn actually happened stays
	// local).
	seed.Flush()
	lc := d.Lifecycle()
	if lc.Releases == 0 {
		t.Fatalf("lifecycle after storm: %+v (no thread ever released — storm vacuous)", lc)
	}
	iv := chaos.Invariants{Policy: p}
	var vs []chaos.Violation
	vs = append(vs, iv.CheckLifecycle(lc, 1)...) // seed still leased
	vs = append(vs, iv.CheckLeaked(d.Unreclaimed())...)
	vs = append(vs, iv.CheckCounters(d.Stats())...)
	for _, v := range vs {
		t.Errorf("invariant violated: %s", v)
	}
	if err := balanceErr(p, l.Outstanding(), int64(l.Size(seed))); err != nil {
		t.Error(err)
	}
	pool.Release(seedH)
}

// balanceErr reports an allocation ledger that does not balance after
// a quiescent flush: the outstanding allocations (allocs minus frees)
// must be exactly the live population. NR is exempt: it leaks by design.
func balanceErr(p core.Policy, outstanding, live int64) error {
	if p == core.NR || outstanding == live {
		return nil
	}
	return fmt.Errorf("balance: %d allocations outstanding after flush, want exactly the %d live (leak or double-free)", outstanding, live)
}

// TestSeededSkippedRetire: a node unlinked but never retired is a leak
// the drain counter cannot see; the storm's balance check (outstanding
// vs live) must catch it.
func TestSeededSkippedRetire(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, &core.Options{ReclaimThreshold: 4})
	var outstanding atomic.Int64
	typ := d.RegisterType(func(_ *core.Thread, _ *core.Header) { outstanding.Add(-1) })
	th := d.RegisterThread()
	defer th.Release()

	alloc := func() *core.Header {
		h := new(core.Header)
		th.OnAlloc(h, typ)
		outstanding.Add(1)
		return h
	}
	nodes := make([]*core.Header, 4)
	th.StartOp()
	for i := range nodes {
		nodes[i] = alloc()
	}
	// Seed the fault: "unlink" all four but forget to retire one.
	for _, h := range nodes[:3] {
		th.Retire(h)
	}
	th.EndOp()
	th.Flush()

	if balanceErr(core.EBR, outstanding.Load(), 0) == nil {
		t.Fatalf("skipped retire not detected: outstanding=%d", outstanding.Load())
	}
	// Repair: retire the forgotten node; balance must go clean.
	th.StartOp()
	th.Retire(nodes[3])
	th.EndOp()
	th.Flush()
	if err := balanceErr(core.EBR, outstanding.Load(), 0); err != nil {
		t.Fatalf("control: balanced ledger reported %v", err)
	}
	// NR is exempt: it leaks by design.
	if err := balanceErr(core.NR, 5, 0); err != nil {
		t.Errorf("NR not exempt from balance: %v", err)
	}
}
