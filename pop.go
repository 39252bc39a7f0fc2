// Package pop is the public API of the publish-on-ping safe-memory-
// reclamation library, a Go implementation of
//
//	Singh & Brown, "Publish on Ping: A Better Way to Publish
//	Reservations in Memory Reclamation for Concurrent Data
//	Structures", PPoPP 2025.
//
// It provides the paper's three algorithms — HazardPtrPOP, HazardEraPOP
// and EpochPOP — as drop-in replacements for hazard pointers, the eight
// baseline schemes the paper evaluates against, and six concurrent data
// structures integrated with them. Every structure is a key→value Map
// (int64 keys, uint64 values) with last-writer-wins overwrite; the two
// ordered structures — a lock-free skiplist and an (a,b)-tree — are
// OrderedMaps with range scans. Above the maps sits Store, a sharded
// string-key KV-serving front with arena-backed byte values, batched
// multi-get and value-returning scans.
//
// All of it is integrated with type-stable arenas so that "freeing"
// memory is meaningful inside a garbage-collected runtime.
//
// # KV quickstart
//
// Create a Domain with a Policy and a thread capacity, lease one
// Thread per worker goroutine, and pass the Thread to every operation:
//
//	d := pop.NewDomain(pop.EpochPOP, 8, nil)
//	kv := pop.NewSkipListMap(d)          // ordered map with range scans
//	t := d.RegisterThread()              // leased to this goroutine
//	kv.Put(t, 42, 1000)                  // insert
//	old, _ := kv.Put(t, 42, 2000)        // overwrite: old == 1000
//	v, ok := kv.Get(t, 42)               // v == 2000
//	removed, ok := kv.Delete(t, 42)      // removed == 2000
//	kv.Scan(t, 0, 99, emit)              // ordered scan: emit(key, val) per pair
//	t.Release()                          // slot becomes re-leasable
//
// # Thread lifecycle
//
// A Thread is a lease on one of the domain's slots, not a lifetime
// commitment: while held it must only be used by the goroutine that
// leased it, and Release (outside any operation) returns the slot —
// any unreclaimed retires are donated to the domain and adopted by
// live threads, and a different goroutine may then lease the same
// slot. Domain.TryRegisterThread is the error-returning lease (the
// panicking RegisterThread remains for compatibility), and a
// DomainGroup of one member wraps the lifecycle in a concurrency-safe,
// non-blocking acquire/release pool for elastic worker sets
// (structures are built on g.Member(0)). A worker set larger than the
// pool bounds itself, e.g. with a channel of one token per slot:
//
//	g := pop.NewDomainGroup(pop.EpochPOP, 1, 8, nil)
//	sem := make(chan struct{}, 8)        // one token per slot
//	go func() {                          // a short-lived worker
//		sem <- struct{}{}                // queues while all 8 are leased
//		h, err := g.Acquire()            // a token guarantees a free slot
//		t := h.Member(0)
//		...
//		g.Release(h)
//		<-sem
//	}()
//
// Overwrites are a first-class reclamation event: on the lock-free
// structures (NewHarrisMichaelListMap, NewSkipListMap, and the hash
// table's buckets) a Put on a present key replaces the node and retires
// the old one, and on the (a,b)-tree it copy-on-writes the leaf — so
// value churn exercises the SMR layer even when the key set is static.
// See internal/ds's package doc for each structure's overwrite
// strategy.
//
// A Thread must only ever be used by the goroutine currently holding
// its lease. Domains are cheap; use one per data structure (or share
// one domain across structures that should reclaim together).
package pop

import (
	"pop/internal/core"
	"pop/internal/ds/abtree"
	"pop/internal/ds/extbst"
	"pop/internal/ds/hashtable"
	"pop/internal/ds/hmlist"
	"pop/internal/ds/lazylist"
	"pop/internal/ds/skiplist"
	"pop/internal/store"
)

// Policy selects a reclamation algorithm (see the core package for the
// algorithms' documentation).
type Policy = core.Policy

// The available reclamation policies.
const (
	// NR performs no reclamation (leaky baseline).
	NR = core.NR
	// HP is Michael's hazard pointers (per-read fence).
	HP = core.HP
	// HPAsym is hazard pointers with asymmetric fences (Folly-style).
	HPAsym = core.HPAsym
	// HE is hazard eras.
	HE = core.HE
	// EBR is RCU-style epoch-based reclamation (fast, not robust).
	EBR = core.EBR
	// IBR is 2GE interval-based reclamation.
	IBR = core.IBR
	// NBR is neutralization-based reclamation (signal restarts).
	NBR = core.NBR
	// HazardPtrPOP is the paper's hazard pointers with publish-on-ping.
	HazardPtrPOP = core.HazardPtrPOP
	// HazardEraPOP is the paper's hazard eras with publish-on-ping.
	HazardEraPOP = core.HazardEraPOP
	// EpochPOP is the paper's dual-mode EBR + HazardPtrPOP algorithm.
	EpochPOP = core.EpochPOP
	// Crystalline is a simplified Crystalline-style batch reclaimer.
	Crystalline = core.Crystalline
)

// Domain is a reclamation domain: one policy plus the thread slots and
// node types registered with it. Thread slots are leasable —
// RegisterThread / TryRegisterThread lease, Thread.Release returns —
// so worker populations can resize inside the domain's capacity.
type Domain = core.Domain

// Thread is a per-goroutine handle used for every operation: a lease
// on one of the domain's slots, returned with Release.
type Thread = core.Thread

// Options tunes a domain (retire-list threshold, epoch frequency, ...).
type Options = core.Options

// Stats aggregates reclamation counters.
type Stats = core.Stats

// LifecycleStats counts thread-slot lifecycle events: current/peak
// leases, releases, and orphan retire-list donation/adoption volumes
// (Domain.Lifecycle).
type LifecycleStats = core.LifecycleStats

// NewDomain creates a reclamation domain for at most maxThreads
// concurrent threads. opts may be nil for the paper's defaults.
func NewDomain(p Policy, maxThreads int, opts *Options) *Domain {
	return core.NewDomain(p, maxThreads, opts)
}

// DomainGroup partitions one logical reclamation domain into several
// member Domains sharing a single lease facade. A goroutine leases one
// group slot (Acquire) and holds a GroupHandle whose per-member Thread
// handles are leased lazily on first touch, so a reclaimer's ping
// fan-out covers only the threads that actually operated in its member
// — O(readers-of-member), not O(total threads). Store shards map onto
// members; see NewStore.
type DomainGroup = core.DomainGroup

// GroupHandle is one goroutine's lease across a DomainGroup: a group
// slot plus lazily-leased member Threads (GroupHandle.Member).
type GroupHandle = core.GroupHandle

// ReclaimStats summarizes reclamation-pass fan-out: passes, pings
// issued and thread-list entries scanned, absolute and per pass.
type ReclaimStats = core.ReclaimStats

// NewDomainGroup creates a group of members domains (members must be a
// positive power of two) under policy p, each sized so that all
// maxThreads group slots can lease into it. opts may be nil for the
// paper's defaults.
func NewDomainGroup(p Policy, members, maxThreads int, opts *Options) *DomainGroup {
	return core.NewDomainGroup(p, members, maxThreads, opts)
}

// ParsePolicy resolves a policy name ("HazardPtrPOP", "EBR", ...).
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// Policies returns all policies in the paper's plot order.
func Policies() []Policy { return core.Policies() }

// Map is a concurrent map from int64 keys to uint64 values bound to a
// reclamation domain. Every constructor below returns a linearizable
// Map safe for concurrent use by threads registered with the same
// domain. Overwrites are last-writer-wins: Put's returned old value is
// exactly the value it replaced.
type Map interface {
	// Put maps key to val (inserting or overwriting) and returns the
	// previous value; replaced reports whether the key was present.
	Put(t *Thread, key int64, val uint64) (old uint64, replaced bool)
	// PutIfAbsent maps key to val only if key is absent and reports
	// whether it did (a present key keeps its value).
	PutIfAbsent(t *Thread, key int64, val uint64) bool
	// Get returns the value mapped to key.
	Get(t *Thread, key int64) (uint64, bool)
	// Delete removes key and returns the value it removed.
	Delete(t *Thread, key int64) (uint64, bool)
	// Size counts the keys (quiescent use only: no concurrent updates).
	Size(t *Thread) int
	// Outstanding reports live+retired node-pool occupancy (a memory
	// metric: allocations minus frees).
	Outstanding() int64
}

// OrderedMap is a Map over ordered keys that additionally supports
// range scans. Scans run concurrently with updates: emitted keys ascend
// strictly, and every emitted (key, value) pair was one the map held at
// some point during the scan. A scan is one long operation — the
// calling thread's reservations stay live across every hop — so
// scan-heavy workloads are the strongest read-path pressure a
// reclamation policy can face in this library. Two structures implement
// it with opposite reservation shapes: the skiplist (NewSkipListMap)
// pins one reservation per node hopped, the (a,b)-tree (NewABTreeMap)
// pins whole leaves.
type OrderedMap interface {
	Map
	// Scan calls emit for each (key, value) pair in [lo, hi], ascending,
	// inside one protected operation, until emit returns false. emit
	// runs inside the operation: it must not call into the map or block.
	Scan(t *Thread, lo, hi int64, emit func(key int64, val uint64) bool)
}

// NewHarrisMichaelListMap creates a lock-free sorted linked-list map
// (Michael 2004; "HML"). Overwrites replace the node and retire the old
// one.
func NewHarrisMichaelListMap(d *Domain) Map { return hmlist.New(d) }

// NewLazyListMap creates a lazy-list map (Heller et al. 2005; "LL").
// Overwrites store in place under the node's lock.
func NewLazyListMap(d *Domain) Map { return lazylist.New(d) }

// NewHashTableMap creates a fixed-size hash map with Harris-Michael-
// list buckets ("HMHT"), sized for expectedKeys at the given load
// factor (keys per bucket; the paper uses 6). Overwrites replace the
// bucket node and retire the old one.
func NewHashTableMap(d *Domain, expectedKeys int64, loadFactor int) Map {
	return hashtable.New(d, expectedKeys, loadFactor, nil)
}

// NewExternalBSTMap creates a lock-based external binary search tree
// map (David, Guerraoui & Trigonakis 2015; "DGT"). Overwrites store in
// place under the parent's lock.
func NewExternalBSTMap(d *Domain) Map { return extbst.New(d) }

// NewSkipListMap creates a lock-free skiplist ordered map ("SKL") with
// range scans. Overwrites replace the node (tower and all) and retire
// the old one; see internal/ds/skiplist for the reclamation protocol.
func NewSkipListMap(d *Domain) OrderedMap { return skiplist.New(d) }

// NewABTreeMap creates a concurrent leaf-oriented (a,b)-tree ordered
// map (after Brown 2017; "ABT") with range scans. Overwrites
// copy-on-write the leaf and retire the old one.
func NewABTreeMap(d *Domain) OrderedMap { return abtree.New(d, nil) }

// Store is the KV-serving front: a sharded map from string keys to
// byte-slice values, layered on the Map structures above. Keys hash to
// a shard plus an int64 in-shard key. Values at most StoreInlineMaxLen
// bytes are tag-encoded directly into the map word — Put allocates
// nothing and Get cannot read stale. Longer values live out of line in
// a size-class arena and retire through the same reclamation path as
// nodes, so an overwrite's replaced payload is freed exactly when the
// domain's policy says it is safe — and a reader that raced that
// reclamation detects it deterministically (the arena's sequence
// discipline) and retries, never observing torn or recycled bytes.
//
//	g := pop.NewDomainGroup(pop.EpochPOP, 2, 8, nil) // 2 member domains, 8 slots
//	opts := &pop.StoreOptions{Ordered: true} // (a,b)-tree shards, so Scan works
//	s, _ := pop.NewStore(g, opts)           // 8 shards, 4 per member
//	h, _ := s.Acquire()                     // lease one group slot
//	s.Put(h, "user:42", []byte("payload"))
//	v, ok := s.Get(h, "user:42", nil)       // v is a private copy
//	s.GetBatch(h, keys, &batch)             // one protected op per member
//	s.PutBatch(h, keys, vals, &batch)       // batched protected upsert
//	s.Scan(h, lo, hi, func(hk int64, v []byte) bool { ... })
//	s.Release(h)
//
// GetBatch and PutBatch answer a whole batch with one protected
// operation per member domain the batch touches (one, with a group of
// one), which beats per-key ops — see store.getbatch_ns_per_key in
// bench/, and BenchmarkStoreGetBatch16 and BenchmarkStorePutBatch in
// internal/store. Scan yields (hashed key,
// value copy) pairs on a store built with Ordered, whose shards are
// (a,b)-trees; the default store's shards are hash tables, which are
// unordered, and Scan panics on it.
//
// Serving pools resize live: Store.Acquire / Release lease group
// handles from the store's domain group, so workers can be scaled up
// and down against a loaded store (see examples/webcache). Each shard
// belongs to exactly one member domain; a handle leases into a member
// only when an op first touches one of its shards, keeping reclamation
// ping fan-out proportional to the member's reader population.
type Store = store.Store

// StoreOptions tunes a Store (shard count, ordering, value size cap);
// see the field docs. The zero value — 8 shards over hash tables of
// one-word buckets — serves batches and single keys; set Ordered for
// Scan.
type StoreOptions = store.Config

// StoreStats is a snapshot of store counters, aggregated over shards.
type StoreStats = store.Stats

// StoreBatch carries one GetBatch's keys' results and its reusable
// scratch; allocate one per serving goroutine and pass it to every
// GetBatch call.
type StoreBatch = store.Batch

// StoreInlineMaxLen is the longest value (in bytes) the store encodes
// inline in the map word instead of the value arena. Inline puts
// allocate no arena slot and inline gets have no stale-read window.
const StoreInlineMaxLen = store.InlineMaxLen

// NewStore creates a sharded string-key KV store over domain group g.
// opts may be nil for the defaults (8 hash-table shards — unordered, so
// Scan needs Ordered). Shards are split evenly across g's members
// (g.Members() must not exceed the shard count). Shard structures
// register node types with the member domains, so create the store
// before the domains' type tables fill up.
func NewStore(g *DomainGroup, opts *StoreOptions) (*Store, error) {
	var cfg store.Config
	if opts != nil {
		cfg = *opts
	}
	return store.New(g, cfg)
}
