package abtree_test

import (
	"sync"
	"testing"

	"pop/internal/core"
	"pop/internal/ds/abtree"
	"pop/internal/rng"
)

func TestInsertOnlyStressProbe(t *testing.T) {
	for _, p := range []core.Policy{core.IBR, core.HE, core.HP, core.EBR, core.HazardPtrPOP} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for round := 0; round < 3; round++ {
				d := core.NewDomain(p, 8, &core.Options{ReclaimThreshold: 64, EpochFreq: 16})
				tr := abtree.New(d)
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					th := d.RegisterThread()
					wg.Add(1)
					go func(id int, th *core.Thread) {
						defer wg.Done()
						r := rng.New(uint64(id) + uint64(round)*31)
						for i := 0; i < 8000; i++ {
							tr.PutIfAbsent(th, r.Intn(60000), 0)
						}
					}(w, th)
				}
				wg.Wait()
			}
		})
	}
}
