// Package ds defines the common contract implemented by every concurrent
// structure in this repository. The primary contract is Map — a
// linearizable key→value dictionary integrated with a reclamation
// domain — implemented by the five data structures of the paper's
// evaluation (Harris-Michael list, lazy list, hash table, external BST,
// (a,b)-tree) plus the lock-free skiplist. The paper benchmarks key-only
// sets; the map contract is this repository's extension toward the
// KV-serving layer the ROADMAP names, and Set remains as a thin adapter
// over Map so key-only call sites keep working unchanged.
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
// registered with the map's domain.
type Map interface {
	// Put maps key to val (inserting or overwriting) and returns the
	// previous value, with replaced reporting whether the key was
	// present. Overwrites are last-writer-wins: the returned old value
	// is exactly the value the new one replaced.
	Put(t *core.Thread, key int64, val uint64) (old uint64, replaced bool)
	// PutIfAbsent maps key to val only if key is absent and reports
	// whether it did. A present key keeps its value — this is the
	// set-flavoured insert, and what the Set adapter uses.
	PutIfAbsent(t *core.Thread, key int64, val uint64) bool
	// Get returns the value mapped to key.
	Get(t *core.Thread, key int64) (uint64, bool)
	// Delete removes key and returns the value it removed.
	Delete(t *core.Thread, key int64) (uint64, bool)
}

// Set is the key-only view of a concurrent map: the contract the
// paper's benchmarks use. Structures implement Map natively; AsSet
// adapts any Map to this interface.
type Set interface {
	// Insert adds key and reports whether it was absent.
	Insert(t *core.Thread, key int64) bool
	// Delete removes key and reports whether it was present.
	Delete(t *core.Thread, key int64) bool
	// Contains reports whether key is present.
	Contains(t *core.Thread, key int64) bool
}

// setAdapter is the thin Set-over-Map adapter. Inserted keys carry the
// zero value; the value plane is simply unused.
type setAdapter struct{ m Map }

// AsSet adapts a Map to the key-only Set interface.
func AsSet(m Map) Set { return setAdapter{m} }

func (s setAdapter) Insert(t *core.Thread, key int64) bool {
	return s.m.PutIfAbsent(t, key, 0)
}

func (s setAdapter) Delete(t *core.Thread, key int64) bool {
	_, ok := s.m.Delete(t, key)
	return ok
}

func (s setAdapter) Contains(t *core.Thread, key int64) bool {
	_, ok := s.m.Get(t, key)
	return ok
}

// Sized is implemented by structures that can report their cardinality
// with a full traversal. Only meaningful while no operations are in
// flight; used by tests and prefill accounting.
type Sized interface {
	// Size counts the keys currently present.
	Size(t *core.Thread) int
}

// MemMap is a Map that can report its node pool's occupancy — what the
// harness and the store hold their structures as. Every structure in
// this repository implements it.
type MemMap interface {
	Map
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
// All methods are safe under concurrent updates. Results are sorted
// and duplicate-free; every reported key was observed present at some
// point during the scan, and a key continuously present (or absent) for
// the scan's whole duration is always (never) reported.
type RangeScanner interface {
	// RangeCount counts the keys in [lo, hi].
	RangeCount(t *core.Thread, lo, hi int64) int
	// RangeCollect appends the keys in [lo, hi], ascending, to buf[:0]
	// and returns the filled slice.
	RangeCollect(t *core.Thread, lo, hi int64, buf []int64) []int64
	// RangeCollectKV appends up to max (key, value) pairs from [lo, hi],
	// ascending by key, to keys[:0]/vals[:0] and returns the filled
	// parallel slices (max <= 0 means no limit). Each value is the one
	// its key was observed holding when the key was emitted — on the
	// replace-node and CoW structures values are immutable per node, so
	// the pair is atomic. This is the value-returning scan the store
	// layer's iterators are built on; the limit bounds the length of one
	// protected operation so a large scan can be chunked into several.
	RangeCollectKV(t *core.Thread, lo, hi int64, max int, keys []int64, vals []uint64) ([]int64, []uint64)
}

// BatchGetter is implemented by structures with an amortized multi-get:
// one protected operation (one StartOp/EndOp, one reservation epoch)
// answers every key in the batch, instead of paying the entry/exit
// protocol per key. Implementations answer keys in the order given;
// callers that sort keys ascending additionally get warm upper-level
// paths on the tree-shaped structures. The store layer's GetBatch
// groups keys per shard and issues one call per shard.
type BatchGetter interface {
	// GetBatch looks every keys[i] up and records the result in vals[i]
	// and present[i]. The three slices must have equal length.
	GetBatch(t *core.Thread, keys []int64, vals []uint64, present []bool)
}

// BatchPutter is the write-side analogue of BatchGetter: one protected
// operation upserts every key in the batch, amortizing the entry/exit
// protocol — and, on the replace-node structures, the per-operation
// retire bookkeeping — across the group. Callers that sort keys
// ascending get warm descent paths on tree-shaped structures, exactly
// as with GetBatch. The store layer's PutBatch groups keys per shard
// and issues one call per shard.
type BatchPutter interface {
	// PutBatch upserts every keys[i] to vals[i], recording the value it
	// replaced in old[i] and whether the key was present in replaced[i].
	// The four slices must have equal length.
	PutBatch(t *core.Thread, keys []int64, vals []uint64, old []uint64, replaced []bool)
}
