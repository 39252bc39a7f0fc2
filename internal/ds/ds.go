// Package ds defines the common contract implemented by every concurrent
// structure in this repository. The primary contract is Map — a
// linearizable key→value dictionary integrated with a reclamation
// domain — implemented by the five data structures of the paper's
// evaluation (Harris-Michael list, lazy list, hash table, external BST,
// (a,b)-tree) plus the lock-free skiplist. The paper benchmarks key-only
// sets; this repository runs those workloads as map calls (contains is
// Get, insert is PutIfAbsent with a zero value, delete is Delete), so
// the map is the only collection contract and the value plane is what
// the KV-serving layer above builds on.
//
// The two ordered structures — skiplist and (a,b)-tree — additionally
// support ordered range scans via RangeScanner, with deliberately
// opposite reservation shapes (per-node Protect chains versus whole-leaf
// protection; see each package's doc), which turns the range-query
// dimension into a cross-structure axis of the benchmark matrix.
//
// # Overwrite strategies
//
// Put on a present key replaces the value. How a structure does that is
// a reclamation-relevant design choice, documented per package:
//
//   - hmlist, skiplist (lock-free, CAS-marked nodes): replace-node-and-
//     retire. A value cannot be stored in place because the node may be
//     logically deleted between the lookup and the store, which would let
//     a concurrent Get observe a value the map never held. Instead the
//     overwrite links a fresh node carrying the new value behind the old
//     one with the same CAS that marks the old node — the mark the
//     structure already uses for deletion — so the key is never absent
//     and the old node retires through the ordinary path. Every
//     overwrite is therefore a retirement: update-heavy KV workloads
//     put allocation/reclamation pressure on the SMR layer even when the
//     key set is static.
//   - lazylist, extbst (lock-based updates): atomic in-place store,
//     validated under the same lock that deletion takes (the node's own
//     lock for the lazy list, the parent's for the external BST), so an
//     overwrite can never race a deletion of the same node. Values are
//     frozen once a node dies, which keeps optimistic readers correct.
//   - abtree (copy-on-write leaves): leaf replacement. Leaves are
//     immutable once published (range scans depend on it), so an
//     overwrite copies the leaf with one value slot changed and retires
//     the old leaf — the same CoW shape as every other (a,b)-tree
//     update, and a second new source of retirements.
//
// All operations take the calling thread's reclamation handle; keys are
// restricted to the open interval (math.MinInt64, math.MaxInt64) because
// the extreme values are reserved for sentinel nodes. Values are opaque
// uint64s; the workload layer derives them from the key stream so a
// stale read surfaces as a checksum mismatch.
package ds

import "pop/internal/core"

// Map is a concurrent map from int64 keys to uint64 values integrated
// with a reclamation domain. Implementations are linearizable;
// operations may be called concurrently from any number of threads
// registered with the map's domain. Every structure in this repository
// implements it, and the harness, the store and the conformance suite
// hold their structures as it.
type Map interface {
	// Put maps key to val (inserting or overwriting) and returns the
	// previous value, with replaced reporting whether the key was
	// present. Overwrites are last-writer-wins: the returned old value
	// is exactly the value the new one replaced.
	Put(t *core.Thread, key int64, val uint64) (old uint64, replaced bool)
	// PutIfAbsent maps key to val only if key is absent and reports
	// whether it did. A present key keeps its value — this is the
	// set-flavoured insert the paper's workloads use.
	PutIfAbsent(t *core.Thread, key int64, val uint64) bool
	// Get returns the value mapped to key.
	Get(t *core.Thread, key int64) (uint64, bool)
	// Delete removes key and returns the value it removed.
	Delete(t *core.Thread, key int64) (uint64, bool)
	// Size counts the keys currently present with a full traversal.
	// Only meaningful while no operations are in flight; used by tests
	// and prefill accounting.
	Size(t *core.Thread) int
	// Outstanding reports pool-level live+retired nodes (memory metric).
	Outstanding() int64
}

// RangeScanner is implemented by ordered structures that support range
// queries (the skiplist and the (a,b)-tree). A scan is one long
// operation — it holds the calling thread's reservations across every
// hop — which makes it the strongest traversal pressure the workload
// layer can put on a reclamation policy's read path. The two
// implementations protect differently (the skiplist reserves every
// node it hops through; the tree reserves whole leaves and re-descends
// between them), so comparing policies across both separates the cost
// of reservation *count* from reservation *lifetime*.
//
// Scan is safe under concurrent updates. Emitted keys ascend strictly;
// every emitted key was observed present at some point during the
// scan, and a key continuously present (or absent) for the scan's
// whole duration is always (never) emitted if the scan runs to hi.
type RangeScanner interface {
	// Scan calls emit for each (key, value) pair in [lo, hi], ascending,
	// inside one protected operation, until emit returns false. Values
	// are immutable per node or leaf, so each pair is atomic. emit runs
	// inside the operation: it must not call into the structure or block.
	Scan(t *core.Thread, lo, hi int64, emit func(key int64, val uint64) bool)
}

// InOp is implemented by structures whose lookup and upsert bodies can
// run inside an operation the caller already opened with StartOp: many
// keys then share one protected operation (one StartOp/EndOp, one
// reservation epoch) instead of paying the entry/exit protocol per key.
// The store's GetBatch and PutBatch bracket each member domain's keys
// this way, so both store structures implement it: hashtable and abtree.
type InOp interface {
	// GetInOp is Get without the StartOp/EndOp bracket.
	GetInOp(t *core.Thread, key int64) (uint64, bool)
	// PutInOp is Put without the StartOp/EndOp bracket.
	PutInOp(t *core.Thread, key int64, val uint64) (uint64, bool)
}
