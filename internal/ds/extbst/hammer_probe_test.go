package extbst_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/ds/extbst"
	"pop/internal/rng"
)

// TestHammerProbe chases the frozen-cell reclamation race (a dead node's
// frozen child cells hiding a stale edge; see docs/ARCHITECTURE.md)
// with sustained recycling pressure. Enabled by EXTBST_HAMMER=1; the
// short always-on variant below runs a single round.
func TestHammerProbe(t *testing.T) {
	dur := 2 * time.Second
	if os.Getenv("EXTBST_HAMMER") != "" {
		dur = 90 * time.Second
	}
	start := time.Now()
	round := 0
	for time.Since(start) < dur {
		round++
		for _, p := range []core.Policy{core.HazardPtrPOP, core.EpochPOP, core.IBR} {
			d := core.NewDomain(p, 4, &core.Options{ReclaimThreshold: 128, EpochFreq: 32})
			tr := extbst.New(d)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				th := d.RegisterThread()
				wg.Add(1)
				go func(id int, th *core.Thread) {
					defer wg.Done()
					r := rng.New(uint64(id)*13 + uint64(round))
					for i := 0; i < 6000; i++ {
						k := r.Intn(4096)
						switch i % 3 {
						case 0:
							tr.PutIfAbsent(th, k, 0)
						case 1:
							tr.Delete(th, k)
						default:
							tr.Get(th, k)
						}
					}
				}(w, th)
			}
			wg.Wait()
		}
	}
}
