package abtree_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/ds/abtree"
	"pop/internal/rng"
)

// TestHammerProbe is a long-running reproduction probe, enabled by
// ABTREE_HAMMER=1 (used during development to chase a rare race).
func TestHammerProbe(t *testing.T) {
	if os.Getenv("ABTREE_HAMMER") == "" {
		t.Skip("set ABTREE_HAMMER=1 to run")
	}
	start := time.Now()
	round := 0
	for time.Since(start) < 120*time.Second {
		round++
		for _, p := range core.Policies() {
			d := core.NewDomain(p, 8, &core.Options{ReclaimThreshold: 384, EpochFreq: 128})
			tr := abtree.New(d, nil)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				th := d.RegisterThread()
				wg.Add(1)
				go func(id int, th *core.Thread) {
					defer wg.Done()
					r := rng.New(uint64(id)*7 + uint64(round))
					for i := 0; i < 20000; i++ {
						tr.PutIfAbsent(th, r.Intn(312500), 0)
					}
				}(w, th)
			}
			wg.Wait()
		}
	}
}
