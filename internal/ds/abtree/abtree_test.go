package abtree_test

import (
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/abtree"
	"pop/internal/ds/dstest"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return abtree.New(d, nil) }, dstest.Config{
		KeyRange: 4096, // force real tree depth and split/excise traffic
	})
}

// TestQuickSequentialEquivalence checks map equivalence on random tapes.
func TestQuickSequentialEquivalence(t *testing.T) {
	prop := func(tape []uint32) bool {
		d := core.NewDomain(core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: 16})
		th := d.RegisterThread()
		tr := abtree.New(d, nil)
		ref := make(map[int64]bool)
		for _, w := range tape {
			k := int64(w % 1024)
			switch (w / 1024) % 3 {
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGrowShrinkCycles drives the tree through repeated full growth and
// emptying, which exercises root growth, leaf splits, excision and root
// collapse paths.
func TestGrowShrinkCycles(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, &core.Options{ReclaimThreshold: 128})
	tr := abtree.New(d, nil)
	th := d.RegisterThread()
	const n = 5000
	for cycle := 0; cycle < 3; cycle++ {
		for k := int64(0); k < n; k++ {
			if !tr.PutIfAbsent(th, k*7%n, 0) {
				t.Fatalf("cycle %d: insert %d failed", cycle, k*7%n)
			}
		}
		if got := tr.Size(th); got != n {
			t.Fatalf("cycle %d: Size = %d, want %d", cycle, got, n)
		}
		for k := int64(0); k < n; k++ {
			if _, ok := tr.Delete(th, k); !ok {
				t.Fatalf("cycle %d: delete %d failed", cycle, k)
			}
		}
		if got := tr.Size(th); got != 0 {
			t.Fatalf("cycle %d: Size = %d, want 0", cycle, got)
		}
	}
	th.Flush()
	if u := d.Unreclaimed(); u != 0 {
		t.Fatalf("unreclaimed = %d after flush", u)
	}
}

// TestRangeScanAcrossLeaves drives scans whose windows straddle many
// leaf boundaries: the scan has no sibling links to follow, so every
// window exercises the bound-tracking re-descent (including after leaf
// splits and excisions reshuffle the separators mid-history).
func TestRangeScanAcrossLeaves(t *testing.T) {
	d := core.NewDomain(core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: 64})
	tr := abtree.New(d, nil)
	th := d.RegisterThread()

	// Multiples of 3 in [0, 3000): forces ~80+ leaves at B=12.
	const n = int64(1000)
	for k := int64(0); k < n; k++ {
		tr.PutIfAbsent(th, k*3, 0)
	}
	check := func(lo, hi int64) {
		t.Helper()
		var want []int64
		for k := int64(0); k < n; k++ {
			if k*3 >= lo && k*3 <= hi {
				want = append(want, k*3)
			}
		}
		got := dstest.ScanKeys(tr, th, lo, hi, nil)
		if len(got) != len(want) {
			t.Fatalf("scan(%d,%d) -> %d keys, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan(%d,%d)[%d] = %d, want %d", lo, hi, i, got[i], want[i])
			}
		}
		if c := dstest.ScanCount(tr, th, lo, hi); c != len(want) {
			t.Fatalf("ScanCount(%d,%d) = %d, want %d", lo, hi, c, len(want))
		}
	}
	check(0, 3*n)      // whole structure
	check(7, 8)        // empty window between keys
	check(300, 1500)   // many leaves
	check(2997, 1<<62) // tail, hi far past the last key
	check(0, 0)        // single key at the left edge
	check(5, 4)        // inverted: empty
	check(-100, -1)    // entirely below the key space
	check(0, 1<<62)    // near-max hi exercises the rightmost spine

	// Excise most leaves (delete two of every three keys), then rescan:
	// bounds collected from rebuilt parents must still partition the
	// space.
	for k := int64(0); k < n; k++ {
		if k%3 != 0 {
			tr.Delete(th, k*3)
		}
	}
	var want []int64
	for k := int64(0); k < n; k += 3 {
		want = append(want, k*3)
	}
	got := dstest.ScanKeys(tr, th, 0, 3*n, nil)
	if len(got) != len(want) {
		t.Fatalf("post-excision scan -> %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-excision scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	th.Flush()
}

// TestDescendingAndAscendingOrders stresses split balance on adversarial
// insertion orders.
func TestDescendingAndAscendingOrders(t *testing.T) {
	for name, step := range map[string]int64{"Ascending": 1, "Descending": -1} {
		t.Run(name, func(t *testing.T) {
			d := core.NewDomain(core.HP, 1, &core.Options{ReclaimThreshold: 64})
			tr := abtree.New(d, nil)
			th := d.RegisterThread()
			const n = 3000
			start := int64(0)
			if step < 0 {
				start = n - 1
			}
			for i, k := int64(0), start; i < n; i, k = i+1, k+step {
				if !tr.PutIfAbsent(th, k, 0) {
					t.Fatalf("insert %d failed", k)
				}
			}
			if got := tr.Size(th); got != n {
				t.Fatalf("Size = %d, want %d", got, n)
			}
			for k := int64(0); k < n; k++ {
				if _, ok := tr.Get(th, k); !ok {
					t.Fatalf("missing %d", k)
				}
			}
		})
	}
}
