// Package hashtable implements HMHT from the paper's plots: a fixed-size
// open hash table whose buckets are Harris-Michael lists. With the
// paper's load factor of 6, bucket chains stay short, which makes this
// the data structure with the *least* traversal per operation — the
// regime where per-read SMR overhead is proportionally largest and cache
// behaviour dominates.
//
// A bucket is one head word, as in Michael's design (SPAA 2002): every
// bucket is a chain of one hmlist.List, which holds the node pool and
// the one tail sentinel all chains end at. A lookup loads the bucket's
// word and is at its first key; an empty bucket costs eight bytes.
//
// The map contract (values, overwrite) is inherited from the list:
// overwrites are replace-node-and-retire (see hmlist), so value churn on
// a static key set still produces retirements in every bucket. A value
// that names memory (the store's arena handles) can be freed with the
// node that holds it: New's freeVal hook runs on each freed node's
// value (hmlist.NewOwning), so an overwrite or delete costs one retire.
package hashtable

import (
	"pop/internal/core"
	"pop/internal/ds/hmlist"
)

// Table is a fixed-bucket-count hash map of int64 keys to uint64 values.
type Table struct {
	l     *hmlist.List
	heads []core.Atomic
	mask  uint64
}

// New creates a table sized for expectedKeys at the given load factor
// (keys per bucket; the paper uses 6). The bucket count is rounded up to
// a power of two. freeVal, if non-nil, frees a value when the policy
// frees the node holding it (see hmlist.NewOwning for the contract).
func New(d *core.Domain, expectedKeys int64, loadFactor int, freeVal func(*core.Thread, uint64)) *Table {
	if loadFactor <= 0 {
		loadFactor = 6
	}
	want := expectedKeys / int64(loadFactor)
	n := uint64(1)
	for int64(n) < want {
		n <<= 1
	}
	t := &Table{l: hmlist.NewOwning(d, freeVal), heads: make([]core.Atomic, n), mask: n - 1}
	for i := range t.heads {
		t.l.InitHead(&t.heads[i])
	}
	return t
}

// Outstanding reports pool-level live+retired nodes (memory metric).
func (t *Table) Outstanding() int64 { return t.l.Outstanding() }

// head hashes key to its bucket's head word with a Fibonacci multiply
// (SplitMix-style finisher keeps adjacent keys in distinct buckets).
func (t *Table) head(key int64) *core.Atomic {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return &t.heads[x&t.mask]
}

// PutIfAbsent maps key to val only if key is absent.
func (t *Table) PutIfAbsent(th *core.Thread, key int64, val uint64) bool {
	th.StartOp()
	defer th.EndOp()
	inserted, _, _ := t.l.PutInOpAt(th, t.head(key), key, val, false)
	return inserted
}

// Put maps key to val, overwriting; returns the previous value.
func (t *Table) Put(th *core.Thread, key int64, val uint64) (uint64, bool) {
	th.StartOp()
	defer th.EndOp()
	return t.PutInOp(th, key, val)
}

// Get returns the value mapped to key.
func (t *Table) Get(th *core.Thread, key int64) (uint64, bool) {
	th.StartOp()
	defer th.EndOp()
	return t.GetInOp(th, key)
}

// Delete removes key and returns the value it removed.
func (t *Table) Delete(th *core.Thread, key int64) (uint64, bool) {
	th.StartOp()
	defer th.EndOp()
	return t.l.DeleteInOpAt(th, t.head(key), key)
}

// GetInOp is Get inside an operation the caller already opened (the
// ds.InOp contract). Bucket chains are short, so sharing one operation
// across many keys saves a large share of each Get's cost.
func (t *Table) GetInOp(th *core.Thread, key int64) (uint64, bool) {
	return t.l.GetInOpAt(th, t.head(key), key)
}

// PutInOp is Put inside an operation the caller already opened (the
// ds.InOp contract).
func (t *Table) PutInOp(th *core.Thread, key int64, val uint64) (uint64, bool) {
	_, old, replaced := t.l.PutInOpAt(th, t.head(key), key, val, true)
	return old, replaced
}

// Size sums bucket sizes. Quiescent use only.
func (t *Table) Size(th *core.Thread) int {
	n := 0
	for i := range t.heads {
		n += t.l.SizeAt(&t.heads[i])
	}
	return n
}
