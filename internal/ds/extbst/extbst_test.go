package extbst_test

import (
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/extbst"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return extbst.New(d) }, dstest.Config{
		KeyRange: 1024,
	})
}

// TestQuickSequentialEquivalence checks map equivalence on random tapes.
func TestQuickSequentialEquivalence(t *testing.T) {
	prop := func(tape []uint32) bool {
		d := core.NewDomain(core.EpochPOP, 1, &core.Options{ReclaimThreshold: 16})
		th := d.RegisterThread()
		tr := extbst.New(d)
		ref := make(map[int64]bool)
		for _, w := range tape {
			k := int64(w % 512)
			switch (w / 512) % 3 {
			case 0:
				if tr.PutIfAbsent(th, k, 0) == ref[k] {
					return false
				}
				ref[k] = true
			case 1:
				if _, ok := tr.Delete(th, k); ok != ref[k] {
					return false
				}
				delete(ref, k)
			default:
				if _, ok := tr.Get(th, k); ok != ref[k] {
					return false
				}
			}
		}
		return tr.Size(th) == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRetiresRouterAndLeaf checks the two-node retirement pattern
// that distinguishes the external BST's churn from the lists'.
func TestDeleteRetiresRouterAndLeaf(t *testing.T) {
	d := core.NewDomain(core.HP, 1, &core.Options{ReclaimThreshold: 1 << 30})
	tr := extbst.New(d)
	th := d.RegisterThread()
	for k := int64(0); k < 10; k++ {
		tr.PutIfAbsent(th, k, 0)
	}
	before := d.Stats().Retires
	tr.Delete(th, 5)
	if got := d.Stats().Retires - before; got != 2 {
		t.Fatalf("delete retired %d nodes, want 2 (router+leaf)", got)
	}
}

// TestSortedDegenerateShape inserts sorted keys (worst-case shape) and
// verifies correctness is unaffected.
func TestSortedDegenerateShape(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, &core.Options{ReclaimThreshold: 64})
	tr := extbst.New(d)
	th := d.RegisterThread()
	const n = 2000
	for k := int64(0); k < n; k++ {
		if !tr.PutIfAbsent(th, k, 0) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if got := tr.Size(th); got != n {
		t.Fatalf("Size = %d, want %d", got, n)
	}
	for k := int64(n - 1); k >= 0; k-- {
		if _, ok := tr.Delete(th, k); !ok {
			t.Fatalf("delete %d failed", k)
		}
	}
	if got := tr.Size(th); got != 0 {
		t.Fatalf("Size = %d, want 0", got)
	}
}
