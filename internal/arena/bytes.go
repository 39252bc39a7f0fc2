package arena

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pop/internal/padded"
)

// Bytes is the variable-size value arena underneath the store layer: a
// size-class slab pool for byte payloads whose allocations are named by
// opaque uint64 Handles rather than pointers, so a data structure can
// hold a value in the uint64 slot it already has.
//
// Like Pool, Bytes simulates manual memory in a garbage-collected
// runtime: slabs are never returned to the Go heap while the arena
// lives. A slot is a run of 8-byte words. Its first word is the header,
// len<<32 | seq32: the payload length and a lifetime sequence number
// (even while free, odd while allocated) whose low 31 bits are baked
// into the Handle. The payload follows in the slot's other words. One
// load gives a reader both halves of the header, and the length always
// arrives with the sequence it belongs to. The seqlock discipline makes
// a stale read *deterministically detectable* instead of a crash:
//
//   - Alloc copies the payload into the slot and only then publishes the
//     length and the new (odd) sequence number in one header store;
//   - Free stores the next (even) sequence number before the slot can be
//     handed out again;
//   - Read loads the header, copies the payload with atomic word loads,
//     and loads the header again — if the first load disagrees with the
//     Handle's sequence, or the second with the first, the slot was
//     freed (and possibly recycled) under the reader, and Read reports
//     !ok instead of returning torn or recycled bytes.
//
// The writers' stores are release stores (storeRelease): plain MOVs on
// amd64 outside race builds (release.go), atomic stores elsewhere and
// under -race (release_atomic.go), so the race detector sees every
// pairing. This holds because, under x86-TSO, every store is a release
// and loads are not reordered with loads, the Go compiler keeps stores
// in program order, and a handle becomes reachable only through the
// shard's locked CAS that publishes it. A reader whose first header load
// matches its handle therefore sees that tenant's payload. A later
// tenant writes the slot only after Free's even header store, in the
// one store order TSO gives all processors. So a reader that copied any
// byte of a later tenant sees a moved header on its second load: a
// reader whose two header loads agree read no bytes of a later tenant.
// Read's header loads stay atomic, so the race is resolved by the
// sequence validation, exactly the role the node pools' Slot.Seq
// discipline plays for pointers.
//
// Slot widths (classWords) step by 1.2–1.33× between 4 and 32 words,
// and by up to 2× above: a 64-byte value takes an 80-byte slot, where
// power-of-two classes would give it 128.

// bytesClasses is the number of size classes: 16 B .. 2048 B slots.
// Sixteen fill the Handle's 4-bit class field.
const bytesClasses = 16

// bytesTopWords is the width of the largest class's slot, in words.
const bytesTopWords = 256

// classWords is each size class's slot width in 8-byte words, header
// included. Class c holds payloads of up to 8·(classWords[c]−1) bytes.
var classWords = [bytesClasses]uint32{2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 128, bytesTopWords}

// bytesSlabSlots is the number of slots allocated per slab (per class).
const bytesSlabSlots = 1024

// bytesBatch is the number of slot indices moved between a thread cache
// and a class's global free list in one transfer.
const bytesBatch = 64

// bytesMaxCache is the per-thread, per-class cache size above which
// frees overflow to the global list.
const bytesMaxCache = 4 * bytesBatch

// MaxValueLen is the largest payload Bytes can hold: the top class's
// slot minus its header word.
const MaxValueLen = 8 * (bytesTopWords - 1)

// Handle names one allocated value: the slot's class and global index
// plus the low 31 bits of the slot's (odd) allocation sequence. The
// zero Handle is never produced by Alloc, so 0 can mean "no value" in
// the structures that store handles.
//
// Layout: 0 << 63 | seq31 << 32 | class4 << 28 | idx28.
//
// Bit 63 is reserved-zero: the store layer tags values that are encoded
// inline (not arena-backed at all) with that bit in the same uint64
// slot, so a Handle must never set it. Dropping the sequence from 32 to
// 31 bits halves the recycle count needed for a stale handle to read
// as live, from 2^32 to 2^31 per-slot reuses within one reader's
// protected operation — still far beyond any reachable churn.
type Handle uint64

// handleSeqMask selects the sequence bits a Handle carries.
const handleSeqMask = 1<<31 - 1

func makeHandle(seq uint32, class, idx uint32) Handle {
	return Handle(uint64(seq&handleSeqMask)<<32 | uint64(class)<<28 | uint64(idx))
}

func (h Handle) seq() uint32   { return uint32(uint64(h)>>32) & handleSeqMask }
func (h Handle) class() uint32 { return uint32(h) >> 28 }
func (h Handle) idx() uint32   { return uint32(h) & (1<<28 - 1) }

// names reports whether slot header hdr is the live allocation h names:
// its sequence is odd and matches the handle's.
func (h Handle) names(hdr uint64) bool {
	return hdr&1 == 1 && uint32(hdr)&handleSeqMask == h.seq()
}

// bclass is one size class: a mutex-protected global free list plus a
// copy-on-grow directory of slabs readers can index without the lock. A
// slab is bytesSlabSlots slots of classWords[c] words each, fixed-length
// once created; all element accesses are atomic.
type bclass struct {
	mu    sync.Mutex
	free  []uint32 // free slot indices (global overflow)
	slabs atomic.Pointer[[][]uint64]
}

// classFor returns the smallest class whose capacity holds n bytes.
func classFor(n int) uint32 {
	for c, w := range classWords {
		if 8*int(w-1) >= n {
			return uint32(c)
		}
	}
	panic(fmt.Sprintf("arena: value of %d bytes exceeds MaxValueLen (%d)", n, MaxValueLen))
}

// Bytes is the value arena. Alloc/Free go through per-thread
// BytesCaches; Read is safe from any goroutine.
type Bytes struct {
	classes [bytesClasses]bclass

	mu     sync.Mutex
	caches []*BytesCache // every cache, for Stats: counts live in the caches
}

// NewBytes returns an empty value arena.
func NewBytes() *Bytes { return &Bytes{} }

// BytesCache is a per-thread allocation cache over a Bytes arena. Not
// safe for concurrent use (one per worker thread, by construction).
type BytesCache struct {
	b             *Bytes
	free          [bytesClasses][]uint32
	allocs, frees Counter
	_             [padded.CacheLine]byte // the next cache's words are not this owner's
}

// NewCache returns a thread cache bound to the arena. The arena keeps
// it, so its counts outlive its owner.
func (b *Bytes) NewCache() *BytesCache {
	c := &BytesCache{b: b}
	b.mu.Lock()
	b.caches = append(b.caches, c)
	b.mu.Unlock()
	return c
}

// grow allocates one slab for class c and pushes its slot indices on the
// class free list. Caller holds the class mutex.
func (b *Bytes) grow(c uint32) {
	cl := &b.classes[c]
	old := cl.slabs.Load()
	var slabs [][]uint64
	if old != nil {
		slabs = append(slabs, *old...)
	}
	base := uint32(len(slabs)) * bytesSlabSlots
	slabs = append(slabs, make([]uint64, bytesSlabSlots*int(classWords[c])))
	cl.slabs.Store(&slabs)
	for i := uint32(0); i < bytesSlabSlots; i++ {
		cl.free = append(cl.free, base+i)
	}
}

// refill moves up to bytesBatch slot indices from the class's global
// list into the cache.
func (c *BytesCache) refill(class uint32) {
	cl := &c.b.classes[class]
	cl.mu.Lock()
	if len(cl.free) == 0 {
		c.b.grow(class)
	}
	n := bytesBatch
	if n > len(cl.free) {
		n = len(cl.free)
	}
	c.free[class] = append(c.free[class], cl.free[len(cl.free)-n:]...)
	cl.free = cl.free[:len(cl.free)-n]
	cl.mu.Unlock()
}

// slotOf resolves a (class, idx) pair to its slab and the index of the
// slot's header word in it. ok=false means idx names a slab that was
// never allocated — only possible for a corrupted handle.
func (b *Bytes) slotOf(class, idx uint32) (slab []uint64, base uint32, ok bool) {
	slabs := b.classes[class].slabs.Load()
	si := idx / bytesSlabSlots
	if slabs == nil || si >= uint32(len(*slabs)) {
		return nil, 0, false
	}
	return (*slabs)[si], idx % bytesSlabSlots * classWords[class], true
}

// Alloc copies v into a fresh slot and returns its Handle. The returned
// handle is valid until Free. Values longer than MaxValueLen panic.
func (c *BytesCache) Alloc(v []byte) Handle {
	class := classFor(len(v))
	if len(c.free[class]) == 0 {
		c.refill(class)
	}
	idx := c.free[class][len(c.free[class])-1]
	c.free[class] = c.free[class][:len(c.free[class])-1]
	slab, base, ok := c.b.slotOf(class, idx)
	if !ok {
		panic("arena: cached slot index names no slab")
	}
	// The slot is free (even seq) and owned by this thread until the
	// header publish below. Readers chasing a stale handle may race
	// these stores; the release-store rule (package comment) is what
	// makes their validation sound.
	n := uint64(len(v))
	w := base + 1
	for len(v) >= 8 {
		storeRelease(&slab[w], leWord(v))
		v = v[8:]
		w++
	}
	if len(v) > 0 {
		var last [8]byte
		copy(last[:], v)
		storeRelease(&slab[w], leWord(last[:]))
	}
	seq := uint32(atomic.LoadUint64(&slab[base])) + 1 // even -> odd: allocated
	storeRelease(&slab[base], n<<32|uint64(seq))
	c.allocs.Add(1)
	return makeHandle(seq, class, idx)
}

// Free returns h's slot to the pool. Freeing a handle that is not the
// slot's current allocation (stale or double free) panics: frees flow
// through the reclamation layer exactly once per retirement.
func (c *BytesCache) Free(h Handle) {
	class, idx := h.class(), h.idx()
	slab, base, ok := c.b.slotOf(class, idx)
	if !ok {
		panic("arena: Free of handle naming no slab")
	}
	hdr := atomic.LoadUint64(&slab[base])
	if !h.names(hdr) {
		panic(fmt.Sprintf("arena: double or stale free of value slot (seq=%d, handle seq=%d)", uint32(hdr), h.seq()))
	}
	storeRelease(&slab[base], uint64(uint32(hdr)+1)) // odd -> even: free
	c.frees.Add(1)
	c.free[class] = append(c.free[class], idx)
	if len(c.free[class]) >= bytesMaxCache {
		cl := &c.b.classes[class]
		cl.mu.Lock()
		cl.free = append(cl.free, c.free[class][len(c.free[class])-bytesBatch:]...)
		cl.mu.Unlock()
		c.free[class] = c.free[class][:len(c.free[class])-bytesBatch]
	}
}

// Read copies h's payload into buf (growing it as needed) and returns
// the filled slice. ok=false means the handle is stale — the slot was
// freed (and possibly reallocated) after h was issued — in which case
// no bytes are returned: the seqlock validation brackets the copy, so a
// caller never observes torn or recycled data. Safe from any goroutine.
func (b *Bytes) Read(h Handle, buf []byte) ([]byte, bool) {
	slab, base, ok := b.slotOf(h.class(), h.idx())
	if !ok {
		return buf[:0], false
	}
	hdr := atomic.LoadUint64(&slab[base])
	if !h.names(hdr) {
		return buf[:0], false
	}
	n := int(hdr >> 32)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	w := base + 1
	out := buf
	for len(out) >= 8 {
		putLeWord(out, atomic.LoadUint64(&slab[w]))
		out = out[8:]
		w++
	}
	if len(out) > 0 {
		var last [8]byte
		putLeWord(last[:], atomic.LoadUint64(&slab[w]))
		copy(out, last[:len(out)])
	}
	// Validate: if the slot was freed or recycled during the copy the
	// header moved and the bytes above are garbage.
	if atomic.LoadUint64(&slab[base]) != hdr {
		return buf[:0], false
	}
	return buf, true
}

// Outstanding returns Allocs-Frees (live + retired-but-unfreed values).
func (b *Bytes) Outstanding() int64 {
	a, f := b.counts()
	return int64(a) - int64(f)
}

// counts sums the caches' allocs and frees. Exact once the arena is
// quiescent; mid-run each sum is monotone, but a cache may free a slot
// another cache's count has not yet shown allocated.
func (b *Bytes) counts() (allocs, frees uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.caches {
		allocs += c.allocs.Load()
		frees += c.frees.Load()
	}
	return allocs, frees
}

// BytesStats is a snapshot of value-arena counters.
type BytesStats struct {
	Allocs      uint64 // total Alloc calls
	Frees       uint64 // total Free calls
	Outstanding int64  // Allocs - Frees
	Slabs       int    // slabs ever allocated, all classes
}

// Stats returns a snapshot of the arena counters.
func (b *Bytes) Stats() BytesStats {
	a, f := b.counts()
	slabs := 0
	for c := range b.classes {
		if s := b.classes[c].slabs.Load(); s != nil {
			slabs += len(*s)
		}
	}
	return BytesStats{Allocs: a, Frees: f, Outstanding: int64(a) - int64(f), Slabs: slabs}
}

// leWord packs b[0:8] little-endian into a word.
func leWord(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// putLeWord unpacks w little-endian into b[0:8].
func putLeWord(b []byte, w uint64) {
	b[0] = byte(w)
	b[1] = byte(w >> 8)
	b[2] = byte(w >> 16)
	b[3] = byte(w >> 24)
	b[4] = byte(w >> 32)
	b[5] = byte(w >> 40)
	b[6] = byte(w >> 48)
	b[7] = byte(w >> 56)
}
