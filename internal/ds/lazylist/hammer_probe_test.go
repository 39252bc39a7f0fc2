package lazylist_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/ds/lazylist"
	"pop/internal/rng"
)

// TestHammerProbe chases the frozen-cell reclamation race (a dead node's
// frozen links hiding a stale edge; see docs/ARCHITECTURE.md): traversals
// must restart on marked nodes rather than cross frozen links.
// Enabled long via LAZYLIST_HAMMER=1; one short round otherwise.
func TestHammerProbe(t *testing.T) {
	dur := 2 * time.Second
	if os.Getenv("LAZYLIST_HAMMER") != "" {
		dur = 90 * time.Second
	}
	start := time.Now()
	round := 0
	for time.Since(start) < dur {
		round++
		for _, p := range []core.Policy{core.HazardPtrPOP, core.EpochPOP, core.HE} {
			d := core.NewDomain(p, 4, &core.Options{ReclaimThreshold: 64, EpochFreq: 32})
			l := lazylist.New(d)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				th := d.RegisterThread()
				wg.Add(1)
				go func(id int, th *core.Thread) {
					defer wg.Done()
					r := rng.New(uint64(id)*17 + uint64(round))
					for i := 0; i < 6000; i++ {
						k := r.Intn(512)
						switch i % 3 {
						case 0:
							l.PutIfAbsent(th, k, 0)
						case 1:
							l.Delete(th, k)
						default:
							l.Get(th, k)
						}
					}
				}(w, th)
			}
			wg.Wait()
		}
	}
}
