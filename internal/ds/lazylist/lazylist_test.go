package lazylist_test

import (
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/lazylist"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return lazylist.New(d) }, dstest.Config{
		KeyRange: 256,
	})
}

// TestQuickSequentialEquivalence drives the list with random operation
// tapes and checks it behaves exactly like a map (property-based).
func TestQuickSequentialEquivalence(t *testing.T) {
	prop := func(tape []uint16) bool {
		d := core.NewDomain(core.HazardEraPOP, 1, &core.Options{ReclaimThreshold: 16})
		th := d.RegisterThread()
		l := lazylist.New(d)
		ref := make(map[int64]bool)
		for _, w := range tape {
			k := int64(w % 64)
			switch (w / 64) % 3 {
			case 0:
				if l.PutIfAbsent(th, k, 0) == ref[k] {
					return false
				}
				ref[k] = true
			case 1:
				if _, ok := l.Delete(th, k); ok != ref[k] {
					return false
				}
				delete(ref, k)
			default:
				if _, ok := l.Get(th, k); ok != ref[k] {
					return false
				}
			}
		}
		return l.Size(th) == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
