// Package arena implements the manual-memory substrate underneath every
// data structure in this repository.
//
// The paper's system runs in C++ where free(node) returns memory to
// mimalloc and a use-after-free is a real memory-safety bug. Go has a
// garbage collector, so "freeing" must be simulated for safe memory
// reclamation (SMR) to mean anything: Pool hands out nodes from large
// type-stable slabs and recycles them on Put. Because slabs are never
// returned to the Go heap while the pool lives, a node pointer held past
// its free does not crash. Every slot carries a sequence number that is
// bumped on each free (Slot.Seq: odd while allocated, even while free),
// and NewPool takes an optional poison function applied on free, so a
// stale reader could be caught deterministically where C++ would
// segfault non-deterministically. No structure wires either in: every
// data-structure node pool is built by the one constructor
// core.NewNodes, which calls NewPool(nil, nil), and Put's double-free
// panic is the only check the pool makes. What catches a stale read
// today sits above the arena: the value checksums the harness verifies
// on every read, the dstest invariants and reference-model checks, and
// core's seeded tape (differential_test.go), which poisons the nodes it
// frees itself.
//
// Bytes is the second arena: the store's variable-size values, named by
// Handles instead of pointers. Its slots come in 30 size classes, 2 to
// 256 words wide, in steps of at most 1.25× or one word, and a payload
// of 2^k bytes (8 to 1024) takes exactly 2^k + 8: a 64 B value takes
// 72 B. A slot's first word is its header, len<<32 | seq32. Alloc
// publishes it after the payload, Free stores the next (even) sequence,
// and Read checks it before and after its copy, so a stale handle reads
// as stale rather than as another value's bytes (bytes.go). Both arenas
// run on one free-list core (freelist.go): a Pool is one class and
// Bytes is thirty, each a shared list under its own lock, and one
// registry per arena sums its caches' counts.
//
// Design points that matter for the benchmarks:
//
//   - Per-thread free lists. Frees performed by a reclaimer go to that
//     reclaimer's cache and are reused by its next allocations, exactly
//     like mimalloc's sharded free lists, which the paper's §5.0.1 calls
//     out as necessary to avoid allocator-induced scalability collapse.
//   - A shared overflow list per class (mutex-protected, batch
//     transfers) bounds per-thread hoarding when producers and
//     consumers are different threads.
//   - Both lists are last-in-first-out and neither knows a slot's
//     address, so the pool places the next allocations in the reverse
//     of whatever order a burst of frees arrived in. What mimalloc's
//     per-page free lists give for nothing — nodes allocated together
//     are neighbours in memory — is the freeing side's job here:
//     core.Thread.sweep frees a reclamation pass's nodes grouped by
//     address.
//   - Per-cache counters. A thread cache counts its own allocs and frees
//     with single-writer Counters: padding alone stops false sharing,
//     not the read-modify-write every thread would otherwise pay on one
//     shared word. Each allocator's registry sums its caches' counts
//     under a lock of its own, which no refill or spill takes, so the
//     memory statistics (the paper's memory-consumption plots) read
//     exact counts at quiescence, and a cache's counts survive the
//     hand-over of its thread slot.
package arena

import (
	"fmt"
	"unsafe"

	"pop/internal/padded"
)

// slabSize is the number of nodes allocated per slab. Large enough that
// slab allocation is off every hot path, small enough that tiny tests do
// not waste memory.
const slabSize = 4096

// batchSize is the number of nodes moved between a thread cache and the
// shared list in one transfer.
const batchSize = 256

// Slot wraps a node with the pool's bookkeeping. Seq is incremented on
// every Put, so a reader that captured (node, seq) can detect that the
// node was recycled under it.
type Slot[T any] struct {
	// Seq counts completed lifetimes of this slot; it is even while the
	// slot is free and odd while it is allocated. Mutated only by the
	// pool, read by debug checks.
	Seq uint64
	// V is the node payload handed to the data structure.
	V T
}

// Pool is a type-stable allocator for nodes of type T.
//
// Allocation goes through ThreadCache handles, one per thread, and is
// safe for concurrent use that way. Pool.Get is the handle-less path: it
// draws straight from the shared list, safe but slower (a lock per call).
type Pool[T any] struct {
	registry
	list   shared[*Slot[T]]
	slabs  [][]Slot[T] // every slab, under list.mu: never returned to the heap
	poison func(*T)    // optional: scrambles payload on free (debug)
	reset  func(*T)    // optional: zeroes payload on alloc
}

// NewPool returns an empty pool. reset, if non-nil, is applied to every
// node before Get returns it; poison, if non-nil, is applied on Put so
// that use-after-free reads observe scrambled data in tests.
func NewPool[T any](reset, poison func(*T)) *Pool[T] {
	p := &Pool[T]{reset: reset, poison: poison}
	p.list.reg = &p.registry
	p.list.grow = func(free []*Slot[T]) []*Slot[T] {
		slab := make([]Slot[T], slabSize)
		p.slabs = append(p.slabs, slab)
		for i := range slab {
			free = append(free, &slab[i])
		}
		return free
	}
	return p
}

// ThreadCache is a per-thread allocation cache. Not safe for concurrent
// use by multiple goroutines (one per worker thread, by construction).
type ThreadCache[T any] struct {
	p     *Pool[T]
	cache []*Slot[T]
	counts
	_ [padded.CacheLine]byte // the next cache's words are not this owner's
}

// NewCache returns a thread cache bound to the pool. The pool keeps its
// counts, so they outlive its owner.
func (p *Pool[T]) NewCache() *ThreadCache[T] {
	c := &ThreadCache[T]{p: p, cache: make([]*Slot[T], 0, cacheBatches*batchSize)}
	p.add(&c.counts)
	return c
}

// Get allocates a node. The returned pointer is valid until Put.
func (c *ThreadCache[T]) Get() *T {
	if len(c.cache) == 0 {
		c.cache = c.p.list.take(c.cache, batchSize)
	}
	s := c.cache[len(c.cache)-1]
	c.cache = c.cache[:len(c.cache)-1]
	s.Seq++ // even -> odd: now allocated
	c.allocs.Add(1)
	if c.p.reset != nil {
		c.p.reset(&s.V)
	}
	return &s.V
}

// Get allocates one node without a thread cache, straight from the
// shared list, so no batch moves into a cache that may never be used
// again. Any ThreadCache of the pool may Put it.
func (p *Pool[T]) Get() *T {
	var one [1]*Slot[T]
	s := p.list.take(one[:0], 1)[0]
	p.detached.Add(1)
	s.Seq++ // even -> odd: now allocated
	if p.reset != nil {
		p.reset(&s.V)
	}
	return &s.V
}

// Put frees a node obtained from Get. Double frees panic.
func (c *ThreadCache[T]) Put(v *T) {
	s := slotOf(v)
	if s.Seq%2 == 0 {
		panic(fmt.Sprintf("arena: double free of slot (seq=%d)", s.Seq))
	}
	if c.p.poison != nil {
		c.p.poison(v)
	}
	s.Seq++ // odd -> even: now free
	c.frees.Add(1)
	c.cache = append(c.cache, s)
	if len(c.cache) >= cacheBatches*batchSize {
		c.cache = c.p.list.spill(c.cache, batchSize)
	}
}

// slotOf recovers the Slot header from a payload pointer. V is at a fixed
// offset inside Slot, so this is the inverse of &s.V.
func slotOf[T any](v *T) *Slot[T] {
	return (*Slot[T])(unsafe.Pointer(uintptr(unsafe.Pointer(v)) - unsafe.Offsetof(Slot[T]{}.V)))
}
