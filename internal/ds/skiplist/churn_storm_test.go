package skiplist_test

import (
	"os"
	"sync"
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
	vs = append(vs, iv.CheckBalance(l.Outstanding(), int64(l.Size(seed)))...)
	vs = append(vs, iv.CheckDrained(d)...)
	vs = append(vs, iv.CheckCounters(d.Stats())...)
	for _, v := range vs {
		t.Errorf("invariant violated: %s", v)
	}
	pool.Release(seedH)
}
