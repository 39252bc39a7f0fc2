package hmlist_test

import (
	"math"
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/hmlist"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return hmlist.New(d) }, dstest.Config{
		KeyRange: 256, // short lists: maximal traversal contention
	})
}

func TestSentinelKeyPanics(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := hmlist.New(d)
	th := d.RegisterThread()
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", k)
				}
			}()
			l.PutIfAbsent(th, k, 0)
		}()
	}
}

// TestQuickSequentialEquivalence drives the list with random operation
// tapes and checks it behaves exactly like a map (property-based).
func TestQuickSequentialEquivalence(t *testing.T) {
	prop := func(tape []uint16) bool {
		d := core.NewDomain(core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: 16})
		th := d.RegisterThread()
		l := hmlist.New(d)
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

// TestHelpingUnlink checks that a traversal physically unlinks logically
// deleted nodes: after a delete whose unlink CAS lost, a later Contains
// must still not observe the key.
func TestHelpingUnlink(t *testing.T) {
	d := core.NewDomain(core.HP, 1, nil)
	l := hmlist.New(d)
	th := d.RegisterThread()
	for k := int64(0); k < 100; k++ {
		l.PutIfAbsent(th, k, 0)
	}
	for k := int64(0); k < 100; k += 3 {
		l.Delete(th, k)
	}
	for k := int64(0); k < 100; k++ {
		want := k%3 != 0
		if _, got := l.Get(th, k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
}
