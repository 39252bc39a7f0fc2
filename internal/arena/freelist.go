package arena

import (
	"sync"
	"sync/atomic"
)

// This file is the free-list core under both allocators: a class's
// shared free list, the single-writer counter, and the registry that
// sums every cache's counts into Stats. What differs stays with each
// allocator: Pool's typed slabs and Bytes' raw words behind a
// copy-on-grow directory, their sequence rules, and each cache's
// per-operation pop and push.

// cacheBatches is how many batches a thread cache holds: the free that
// fills it to cacheBatches batches spills its top batch to the shared
// list.
const cacheBatches = 4

// shared is one class's shared free list, the overflow every thread cache
// of the class refills from and spills to a batch at a time, under its
// own mutex. A slot S is a *Slot[T] in a Pool and a uint32 index in a
// Bytes class. Both ends are last-in-first-out: the slots a cache spills
// are the next a refill takes, the most recently freed first.
type shared[S any] struct {
	mu   sync.Mutex
	free []S
	// grow appends one new slab's slots to free and returns it. take
	// calls it, holding mu, when the list is empty.
	grow func(free []S) []S
	reg  *registry // counts the slabs grow adds
}

// take moves up to n slots from the top of the list to the top of cache
// and returns the cache.
func (l *shared[S]) take(cache []S, n int) []S {
	l.mu.Lock()
	if len(l.free) == 0 {
		l.free = l.grow(l.free)
		l.reg.slabs.Add(1)
	}
	n = min(n, len(l.free))
	cache = append(cache, l.free[len(l.free)-n:]...)
	l.free = l.free[:len(l.free)-n]
	l.mu.Unlock()
	return cache
}

// spill moves a full cache's top n slots to the list and returns the
// rest of the cache.
func (l *shared[S]) spill(cache []S, n int) []S {
	l.mu.Lock()
	l.free = append(l.free, cache[len(cache)-n:]...)
	l.mu.Unlock()
	return cache[:len(cache)-n]
}

// Counter is an event count with one writer at a time: a thread cache's
// allocs and frees, one store slot's per-shard operation counts, or a
// reclamation thread's Stats words. Add is a load and a release store,
// with no read-modify-write instruction and no cache line another writer
// shares, and Load is safe from any goroutine. A count that passes
// between owners (a thread slot leased again) must pass through a
// happens-before edge, as a lease does.
type Counter struct{ n uint64 }

// Add adds d. Only the counter's current owner may call it.
func (c *Counter) Add(d uint64) { storeRelease(&c.n, atomic.LoadUint64(&c.n)+d) }

// Load returns the count.
func (c *Counter) Load() uint64 { return atomic.LoadUint64(&c.n) }

// counts is one thread cache's allocations and frees.
type counts struct{ allocs, frees Counter }

// Stats is a snapshot of an allocator's counts.
type Stats struct {
	Allocs      uint64 // total allocations (Get, Alloc)
	Frees       uint64 // total frees (Put, Free)
	Outstanding int64  // Allocs - Frees: live slots and retired ones not yet freed
	Slabs       int    // slabs ever allocated, all classes
}

// registry sums the counts of every cache of one allocator, which keeps
// every cache it was given, so a cache's counts outlive its owner and
// the hand-over of its thread slot. Its lock guards only the list of
// caches: reading Stats never waits on a refill or a spill.
type registry struct {
	mu       sync.Mutex
	caches   []*counts
	detached atomic.Uint64 // allocations without a cache (Pool.Get)
	slabs    atomic.Int64
}

func (r *registry) add(c *counts) {
	r.mu.Lock()
	r.caches = append(r.caches, c)
	r.mu.Unlock()
}

// Stats returns a snapshot of the counts, exact once the allocator is
// quiescent. Mid-run each count is monotone, but Outstanding can be
// momentarily negative: one cache may free a slot another cache's count
// has not yet shown allocated.
func (r *registry) Stats() Stats {
	a, f := r.detached.Load(), uint64(0)
	r.mu.Lock()
	for _, c := range r.caches {
		a += c.allocs.Load()
		f += c.frees.Load()
	}
	r.mu.Unlock()
	return Stats{Allocs: a, Frees: f, Outstanding: int64(a) - int64(f), Slabs: int(r.slabs.Load())}
}

// Outstanding returns Allocs-Frees.
func (r *registry) Outstanding() int64 { return r.Stats().Outstanding }
