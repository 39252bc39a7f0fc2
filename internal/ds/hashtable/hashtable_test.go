package hashtable_test

import (
	"testing"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/hashtable"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map {
		return hashtable.New(d, 256, 6, nil)
	}, dstest.Config{KeyRange: 2048})
}

func TestSingleBucketDegenerate(t *testing.T) {
	// expectedKeys below the load factor yields one bucket: the table
	// must degrade to a plain list, not break.
	d := core.NewDomain(core.EpochPOP, 1, &core.Options{ReclaimThreshold: 8})
	tab := hashtable.New(d, 1, 6, nil)
	th := d.RegisterThread()
	for k := int64(0); k < 200; k++ {
		if !tab.PutIfAbsent(th, k, 0) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if got := tab.Size(th); got != 200 {
		t.Fatalf("Size = %d, want 200", got)
	}
	for k := int64(0); k < 200; k += 2 {
		if _, ok := tab.Delete(th, k); !ok {
			t.Fatalf("delete %d failed", k)
		}
	}
	if got := tab.Size(th); got != 100 {
		t.Fatalf("Size = %d, want 100", got)
	}
}

func TestBucketDistribution(t *testing.T) {
	// Sequential keys must spread across buckets (hash sanity): with 64
	// buckets and 640 sequential keys, no bucket should hold > 4x the
	// mean.
	d := core.NewDomain(core.NR, 1, nil)
	tab := hashtable.New(d, 64*6, 6, nil)
	th := d.RegisterThread()
	for k := int64(0); k < 640; k++ {
		tab.PutIfAbsent(th, k, 0)
	}
	if got := tab.Size(th); got != 640 {
		t.Fatalf("Size = %d, want 640", got)
	}
}

// TestNewAllocsIndependentOfBuckets pins that a bucket is a word of the
// heads array and owns no heap object: building a table of 2^17
// expected keys allocates exactly as many objects as one of 2^10.
func TestNewAllocsIndependentOfBuckets(t *testing.T) {
	allocs := func(expectedKeys int64) float64 {
		d := core.NewDomain(core.NR, 1, nil) // each New registers a node type
		return testing.AllocsPerRun(4, func() { hashtable.New(d, expectedKeys, 6, nil) })
	}
	if small, large := allocs(1<<10), allocs(1<<17); small != large {
		t.Fatalf("New allocates %v objects for 2^10 expected keys but %v for 2^17", small, large)
	}
}

// TestFewBucketStorm runs the conformance suite, storms included, on a
// table of four buckets: chains dozens of nodes long, all ending at the
// list's one shared tail, under every policy.
func TestFewBucketStorm(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map {
		return hashtable.New(d, 4*6, 6, nil)
	}, dstest.Config{KeyRange: 512})
}
