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

// GetInOp is Get inside an operation the caller already opened (the
// ds.InOp contract). Bucket chains are short, so sharing one operation
// across many keys saves a large share of each Get's cost.
func (t *Table) GetInOp(th *core.Thread, key int64) (uint64, bool) {
	return t.bucket(key).GetInOp(th, key)
}

// PutInOp is Put inside an operation the caller already opened (the
// ds.InOp contract).
func (t *Table) PutInOp(th *core.Thread, key int64, val uint64) (uint64, bool) {
	return t.bucket(key).PutInOp(th, key, val)
}

// Size sums bucket sizes. Quiescent use only.
func (t *Table) Size(th *core.Thread) int {
	n := 0
	for _, b := range t.buckets {
		n += b.Size(th)
	}
	return n
}
