// Package hashtable implements HMHT from the paper's plots: a fixed-size
// open hash table whose buckets are Harris-Michael lists. With the
// paper's load factor of 6, bucket chains stay short, which makes this
// the data structure with the *least* traversal per operation — the
// regime where per-read SMR overhead is proportionally largest and cache
// behaviour dominates.
//
// The map contract (values, overwrite) is inherited from the buckets:
// overwrites are replace-node-and-retire (see hmlist), so value churn on
// a static key set still produces retirements in every bucket.
package hashtable

import (
	"pop/internal/core"
	"pop/internal/ds/hmlist"
)

// Table is a fixed-bucket-count hash map of int64 keys to uint64 values.
type Table struct {
	shared  *hmlist.Shared
	buckets []*hmlist.List
	mask    uint64
}

// New creates a table sized for expectedKeys at the given load factor
// (keys per bucket; the paper uses 6). The bucket count is rounded up to
// a power of two. All buckets share one node pool.
func New(d *core.Domain, expectedKeys int64, loadFactor int) *Table {
	if loadFactor <= 0 {
		loadFactor = 6
	}
	want := expectedKeys / int64(loadFactor)
	n := uint64(1)
	for int64(n) < want {
		n <<= 1
	}
	t := &Table{
		shared:  hmlist.NewShared(d),
		buckets: make([]*hmlist.List, n),
		mask:    n - 1,
	}
	for i := range t.buckets {
		t.buckets[i] = hmlist.NewWithShared(t.shared)
	}
	return t
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (t *Table) Outstanding() int64 { return t.shared.Outstanding() }

// bucket hashes key with a Fibonacci multiply (SplitMix-style finisher
// keeps adjacent keys in distinct buckets).
func (t *Table) bucket(key int64) *hmlist.List {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return t.buckets[x&t.mask]
}

// PutIfAbsent maps key to val only if key is absent.
func (t *Table) PutIfAbsent(th *core.Thread, key int64, val uint64) bool {
	return t.bucket(key).PutIfAbsent(th, key, val)
}

// Put maps key to val, overwriting; returns the previous value.
func (t *Table) Put(th *core.Thread, key int64, val uint64) (uint64, bool) {
	return t.bucket(key).Put(th, key, val)
}

// Get returns the value mapped to key.
func (t *Table) Get(th *core.Thread, key int64) (uint64, bool) {
	return t.bucket(key).Get(th, key)
}

// Delete removes key and returns the value it removed.
func (t *Table) Delete(th *core.Thread, key int64) (uint64, bool) {
	return t.bucket(key).Delete(th, key)
}

// GetBatch looks up every keys[i] inside one protected operation —
// bucket chains are short (load factor ~6), so the per-operation
// entry/exit protocol is a large share of a single Get's cost here and
// the batch amortization is proportionally strongest.
func (t *Table) GetBatch(th *core.Thread, keys []int64, vals []uint64, present []bool) {
	th.StartOp()
	defer th.EndOp()
	for i, key := range keys {
		vals[i], present[i] = t.bucket(key).GetInOp(th, key)
	}
}

// PutBatch upserts every keys[i] inside one protected operation (the
// ds.BatchPutter contract). The same short-chain argument as GetBatch
// applies, and more strongly: an upsert pays entry/exit plus the
// write-phase bracket per operation, so batching folds both into one.
func (t *Table) PutBatch(th *core.Thread, keys []int64, vals []uint64, old []uint64, replaced []bool) {
	th.StartOp()
	defer th.EndOp()
	for i, key := range keys {
		old[i], replaced[i] = t.bucket(key).PutInOp(th, key, vals[i])
	}
}

// Size sums bucket sizes. Quiescent use only.
func (t *Table) Size(th *core.Thread) int {
	n := 0
	for _, b := range t.buckets {
		n += b.Size(th)
	}
	return n
}
