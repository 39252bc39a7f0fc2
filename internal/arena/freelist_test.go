package arena

import (
	"testing"
	"unsafe"
)

type node struct{ a, b int64 }

// allocator is the surface the spill/refill contract drives, over either
// arena: caches by index, a slot's identity, and the registry's Stats.
type allocator[V any] struct {
	batch, slab int // slots per transfer, slots per slab
	alloc       func(c int) V
	free        func(c int, v V)
	id          func(V) uint64 // names the slot, whatever its lifetime
	stats       func() Stats
}

func poolAllocator() allocator[*node] {
	p := NewPool[node](nil, nil)
	cs := []*ThreadCache[node]{p.NewCache(), p.NewCache(), p.NewCache(), p.NewCache()}
	return allocator[*node]{
		batch: batchSize, slab: slabSize,
		alloc: func(c int) *node { return cs[c].Get() },
		free:  func(c int, v *node) { cs[c].Put(v) },
		id:    func(v *node) uint64 { return uint64(uintptr(unsafe.Pointer(v))) },
		stats: p.Stats,
	}
}

// bytesAllocator drives the class of 64-byte values.
func bytesAllocator() allocator[Handle] {
	b := NewBytes()
	cs := []*BytesCache{b.NewCache(), b.NewCache(), b.NewCache(), b.NewCache()}
	v := make([]byte, 64)
	return allocator[Handle]{
		batch: bytesBatch, slab: bytesSlabSlots,
		alloc: func(c int) Handle { return cs[c].Alloc(v) },
		free:  func(c int, h Handle) { cs[c].Free(h) },
		id:    func(h Handle) uint64 { return uint64(h.idx()) },
		stats: b.Stats,
	}
}

// TestSpillRefill pins the batch rule both allocators share. A cache
// that frees cacheBatches batches spills exactly its top batch; the next
// refill, by another cache, takes those slots most recently freed first,
// and the one after it slots never allocated. Stats, Slabs included, is
// exact at every step.
func TestSpillRefill(t *testing.T) {
	t.Run("Pool", func(t *testing.T) { checkSpillRefill(t, poolAllocator()) })
	t.Run("Bytes", func(t *testing.T) { checkSpillRefill(t, bytesAllocator()) })
}

func checkSpillRefill[V any](t *testing.T, a allocator[V]) {
	want := Stats{Slabs: 1}
	check := func(when string) {
		t.Helper()
		want.Outstanding = int64(want.Allocs) - int64(want.Frees)
		if got := a.stats(); got != want {
			t.Fatalf("%s: Stats %+v, want %+v", when, got, want)
		}
	}
	alloc := func(c int) V { want.Allocs++; return a.alloc(c) }

	n := cacheBatches * a.batch
	vs := make([]V, n)
	for i := range vs {
		vs[i] = alloc(0)
	}
	check("cache 0 allocated")
	for _, v := range vs {
		a.free(1, v)
		want.Frees++
	}
	check("cache 1 freed them")

	for i := n - 1; i >= n-a.batch; i-- {
		if got := alloc(2); a.id(got) != a.id(vs[i]) {
			t.Fatalf("cache 2's allocation %d is not the slot freed %d-th", n-i, i+1)
		}
	}
	fresh := a.id(alloc(2))
	for i, v := range vs {
		if a.id(v) == fresh {
			t.Fatalf("cache 2's second refill gave the slot freed %d-th: cache 1 spilled more than one batch", i+1)
		}
	}
	if got := alloc(1); a.id(got) != a.id(vs[n-a.batch-1]) {
		t.Fatal("cache 1's next allocation is not the last slot it kept")
	}
	check("after the refill")

	// The shared list holds the slab less the batches caches 0 and 2
	// took and cache 1 did not give back; one more allocation grows.
	for range a.slab - (cacheBatches+1)*a.batch {
		alloc(3)
	}
	check("shared list drained")
	alloc(3)
	want.Slabs++
	check("after a grow")
}

// ringLen is the number of live slots the allocator benchmarks keep:
// each iteration frees the oldest and allocates its replacement.
const ringLen = 2048

// BenchmarkPoolGetPut is one node free and one allocation per iteration.
// On one cache they never leave it; across two caches, one allocates
// and the other frees, so every batch a refill takes is one a spill gave
// back.
func BenchmarkPoolGetPut(b *testing.B) {
	for _, name := range []string{"one-cache", "cross-cache"} {
		b.Run(name, func(b *testing.B) {
			p := NewPool[node](nil, nil)
			get, put := p.NewCache(), p.NewCache()
			if name == "one-cache" {
				put = get
			}
			var ring [ringLen]*node
			for i := range ring {
				ring[i] = get.Get()
			}
			b.ResetTimer()
			for i := range b.N {
				j := i % ringLen
				put.Put(ring[j])
				ring[j] = get.Get()
			}
		})
	}
}

// BenchmarkBytesAllocFree is BenchmarkPoolGetPut over the value arena,
// with 64-byte values.
func BenchmarkBytesAllocFree(b *testing.B) {
	v := make([]byte, 64)
	for _, name := range []string{"one-cache", "cross-cache"} {
		b.Run(name, func(b *testing.B) {
			a := NewBytes()
			alloc, free := a.NewCache(), a.NewCache()
			if name == "one-cache" {
				free = alloc
			}
			var ring [ringLen]Handle
			for i := range ring {
				ring[i] = alloc.Alloc(v)
			}
			b.ResetTimer()
			for i := range b.N {
				j := i % ringLen
				free.Free(ring[j])
				ring[j] = alloc.Alloc(v)
			}
		})
	}
}
