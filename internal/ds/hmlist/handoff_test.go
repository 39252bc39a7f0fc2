package hmlist_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/ds/hmlist"
)

// TestRetireHandoffDeterministic forces one handoff single-threaded:
// publish a node in linking mode, delete it while LINKING is still
// held (the unlink winner must defer), then FinishLinking (which must
// adopt the deferred retire and run the purge hook exactly once).
func TestRetireHandoffDeterministic(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, &core.Options{ReclaimThreshold: 16})
	l := hmlist.New(d)
	var purges atomic.Int64
	l.EnableLinking(func(_ *core.Thread, n *hmlist.Node) {
		if n.Key() != 7 {
			t.Errorf("purge saw key %d, want 7", n.Key())
		}
		purges.Add(1)
	})
	th := d.RegisterThread()

	th.StartOp()
	out, valid := l.PutInOpHinted(th, 7, 77, true, nil, 0)
	th.EndOp()
	if !valid || !out.Inserted || out.New == nil {
		t.Fatalf("publish: valid=%v out=%+v", valid, out)
	}
	if _, removed := l.Delete(th, 7); !removed {
		t.Fatal("delete missed the published key")
	}
	if def, ad := l.Handoffs(); def != 1 || ad != 0 {
		t.Fatalf("after delete under LINKING: deferred=%d adopted=%d, want 1,0", def, ad)
	}
	if n := purges.Load(); n != 0 {
		t.Fatalf("purge ran %d times before FinishLinking", n)
	}
	th.StartOp()
	l.FinishLinking(th, out.New)
	th.EndOp()
	if def, ad := l.Handoffs(); def != 1 || ad != 1 {
		t.Fatalf("after FinishLinking: deferred=%d adopted=%d, want 1,1", def, ad)
	}
	if n := purges.Load(); n != 1 {
		t.Fatalf("purge ran %d times, want exactly 1", n)
	}
}

// TestRetireHandoffStorm is the chaos version, under every policy:
// writers publish in linking mode and dawdle before FinishLinking
// (occasionally sleeping — a stalled index splice) while overwrites
// and deletes on the same small key set race to win unlinks against
// live LINKING bits. At quiescence every deferred retire must have
// been adopted by exactly one FinishLinking, and the exactly-once
// ledger must close: nodes purged (retired) + nodes still live ==
// nodes published. A double retire overflows the ledger; a lost
// handoff (leaked node) underflows it.
func TestRetireHandoffStorm(t *testing.T) {
	const (
		workers = 4
		keys    = 64
		opsEach = 4000
	)
	var totalDeferred int64
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			d := core.NewDomain(p, workers, &core.Options{
				ReclaimThreshold: 32,
				EpochFreq:        8,
			})
			l := hmlist.New(d)
			var purges, published atomic.Int64
			l.EnableLinking(func(_ *core.Thread, _ *hmlist.Node) {
				purges.Add(1)
			})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := d.RegisterThread()
					defer th.Release()
					seed := uint64(w)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < opsEach; i++ {
						seed = seed*6364136223846793005 + 1442695040888963407
						k := int64((seed >> 33) % keys)
						if seed%10 < 6 {
							th.StartOp()
							out, valid := l.PutInOpHinted(th, k, seed, true, nil, 0)
							if !valid {
								t.Error("head-walk PutInOpHinted returned valid=false")
							}
							if out.New != nil {
								published.Add(1)
								// Hold LINKING open across scheduling points —
								// the window a racing unlink must hand off in.
								runtime.Gosched()
								if seed%251 == 0 {
									time.Sleep(50 * time.Microsecond)
								}
								l.FinishLinking(th, out.New)
							}
							th.EndOp()
						} else {
							l.Delete(th, k)
						}
					}
				}(w)
			}
			wg.Wait()
			def, ad := l.Handoffs()
			if def != ad {
				t.Fatalf("handoff imbalance: deferred=%d adopted=%d", def, ad)
			}
			th := d.RegisterThread()
			live := int64(l.Size(th))
			if got, want := purges.Load()+live, published.Load(); got != want {
				t.Fatalf("retire ledger: purged(%d) + live(%d) = %d, want published(%d)",
					purges.Load(), live, got, want)
			}
			totalDeferred += def
		})
	}
	// The storm must actually exercise the deferred path somewhere, or
	// the balance assertions above are vacuous.
	if totalDeferred == 0 {
		t.Error("no handoff was deferred under any policy; widen the LINKING window")
	}
}
