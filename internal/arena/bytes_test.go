package arena

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBytesRoundTrip(t *testing.T) {
	b := NewBytes()
	c := b.NewCache()
	sizes := []int{0, 1, 7, 8, 9, 16, 100, 1024, MaxValueLen}
	for _, n := range sizes {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(i*7 + n)
		}
		h := c.Alloc(v)
		if h == 0 {
			t.Fatalf("size %d: zero handle", n)
		}
		got, ok := b.Read(h, nil)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("size %d: Read mismatch (ok=%v, len=%d)", n, ok, len(got))
		}
		c.Free(h)
		if _, ok := b.Read(h, nil); ok {
			t.Fatalf("size %d: Read succeeded after free", n)
		}
	}
	if out := b.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after balanced alloc/free", out)
	}
}

// sameSlot reports whether two handles name the same slot, whatever
// their sequences.
func sameSlot(a, b Handle) bool { return a.class() == b.class() && a.idx() == b.idx() }

// classCap returns the payload capacity of class c in bytes.
func classCap(c uint32) int { return 8 * int(classWords[c]-1) }

// TestBytesClassFor checks the class table over every payload size: the
// chosen class holds n bytes and the class below it does not. The
// ladder steps by at most 1.25× or one word, every power-of-two payload
// from 8 to 1024 bytes takes exactly its own size plus the header word,
// and so a 64-byte value takes a 72-byte slot.
func TestBytesClassFor(t *testing.T) {
	for n := 0; n <= MaxValueLen; n++ {
		c := classFor(n)
		if classCap(c) < n {
			t.Fatalf("classFor(%d) = %d, which holds only %d bytes", n, c, classCap(c))
		}
		if c > 0 && classCap(c-1) >= n {
			t.Fatalf("classFor(%d) = %d, but class %d holds %d bytes", n, c, c-1, classCap(c-1))
		}
	}
	if classCap(bytesClasses-1) != MaxValueLen {
		t.Fatalf("top class holds %d bytes, MaxValueLen is %d", classCap(bytesClasses-1), MaxValueLen)
	}
	for c := 1; c < bytesClasses; c++ {
		lo, hi := classWords[c-1], classWords[c]
		if hi != lo+1 && 4*hi > 5*lo {
			t.Errorf("class %d steps from %d to %d words, over 1.25x", c, lo, hi)
		}
	}
	for n := 8; n <= 1024; n *= 2 {
		if w := classWords[classFor(n)]; 8*int(w) != n+8 {
			t.Errorf("a %d-byte value takes a %d-byte slot, want %d", n, 8*w, n+8)
		}
	}
	if w := classWords[classFor(64)]; 8*w != 72 {
		t.Fatalf("a 64-byte value takes a %d-byte slot, want 72", 8*w)
	}
}

// TestBytesHeaderWrap recycles a slot at a chosen sequence: Free takes
// it to the next even value and the next Alloc to the odd one after, so
// the new handle's sequence is the old one plus 2, and the old handle
// must not read the new value. At the top of the 32 bits, 2^32-1, Free
// wraps the sequence to 0 and the next Alloc to 1.
func TestBytesHeaderWrap(t *testing.T) {
	for _, start := range []uint32{41, 1<<32 - 1} {
		b := NewBytes()
		c := b.NewCache()
		old := b.SetSeq(c.Alloc([]byte("first tenant")), start)
		if got, ok := b.Read(old, nil); !ok || string(got) != "first tenant" {
			t.Fatalf("handle at sequence %d reads %q, %v", start, got, ok)
		}
		c.Free(old)
		h := c.Alloc([]byte("second tenant"))
		if want := (start + 2) & handleSeqMask; !sameSlot(h, old) || h.seq() != want {
			t.Fatalf("from sequence %d, Free+Alloc gave slot %v seq %d, want the same slot at seq %d", start, sameSlot(h, old), h.seq(), want)
		}
		if _, ok := b.Read(old, nil); ok {
			t.Fatalf("the handle at sequence %d reads the recycled slot", start)
		}
		if got, ok := b.Read(h, nil); !ok || string(got) != "second tenant" {
			t.Fatalf("the handle after sequence %d reads %q, %v", start, got, ok)
		}
	}
}

// TestBytesStaleSameLength recycles a slot with a payload of the same
// length: the old handle's sequence is all that tells the two apart, and
// Read must reject it.
func TestBytesStaleSameLength(t *testing.T) {
	b := NewBytes()
	c := b.NewCache()
	old := c.Alloc([]byte("payload one"))
	c.Free(old)
	h := c.Alloc([]byte("payload two"))
	if !sameSlot(h, old) {
		t.Fatal("the freed slot was not the next one allocated")
	}
	if _, ok := b.Read(old, nil); ok {
		t.Fatal("Read accepted the stale handle")
	}
	if got, ok := b.Read(h, nil); !ok || string(got) != "payload two" {
		t.Fatalf("live handle reads %q, %v", got, ok)
	}
}

// TestBytesSlabFootprint pins what one slab costs: growing class c
// allocates bytesSlabSlots slots of classWords[c] words, headers
// included, and no per-slot array beside them.
func TestBytesSlabFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection's own allocations are not grow's
	for c := uint32(0); c < bytesClasses; c++ {
		want := bytesSlabSlots * int(classWords[c])
		// The heap counters are process-wide: another goroutine's
		// allocation can land inside one window, but not inside all.
		extra := int64(math.MaxInt64)
		for range 5 {
			b := NewBytes()
			cl := &b.classes[c]
			cl.free = make([]uint32, 0, bytesSlabSlots) // the free list's growth is not the slab's
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cl.mu.Lock()
			cl.free = cl.grow(cl.free)
			cl.mu.Unlock()
			runtime.ReadMemStats(&after)
			if got := len((*b.dirs[c].Load())[0]); got != want {
				t.Fatalf("class %d: slab of %d words, want %d", c, got, want)
			}
			extra = min(extra, int64(after.TotalAlloc-before.TotalAlloc)-8*int64(want))
		}
		// Beside the slab, grow allocates only its one-entry directory.
		if extra < 0 || extra > 64 {
			t.Fatalf("class %d: grow allocated %d bytes beside its %d-byte slab", c, extra, 8*want)
		}
	}
}

// TestBytesClassFull grows the top class to its last slab: the slot at
// index 2^27-1 allocates, round-trips its class and index through the
// Handle and reads back. The next grow panics and adds no slab, since
// its indices would spill into the class field.
func TestBytesClassFull(t *testing.T) {
	const c = bytesClasses - 1
	b := NewBytes()
	cl := &b.classes[c]
	dir := make([][]uint64, 1<<handleIdxBits/bytesSlabSlots-1) // all but the last slab, unallocated
	b.dirs[c].Store(&dir)
	cl.mu.Lock()
	cl.free = cl.grow(cl.free)
	cl.mu.Unlock()
	v := bytes.Repeat([]byte{0xa5}, MaxValueLen)
	h := b.NewCache().Alloc(v)
	if h.class() != c || h.idx() != 1<<handleIdxBits-1 {
		t.Fatalf("top slot allocated as class %d idx %d, want class %d idx %d", h.class(), h.idx(), c, 1<<handleIdxBits-1)
	}
	if got, ok := b.Read(h, nil); !ok || !bytes.Equal(got, v) {
		t.Fatalf("top slot reads %d bytes, %v", len(got), ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("grow past 2^27 slots did not panic")
			}
		}()
		cl.mu.Lock()
		defer cl.mu.Unlock()
		cl.free = cl.grow(cl.free)
	}()
	if n := len(*b.dirs[c].Load()); n != 1<<handleIdxBits/bytesSlabSlots {
		t.Fatalf("class holds %d slabs after the failed grow, want %d", n, 1<<handleIdxBits/bytesSlabSlots)
	}
}

func TestBytesStaleHandleAfterRecycle(t *testing.T) {
	b := NewBytes()
	c := b.NewCache()
	h := c.Alloc([]byte("original payload"))
	c.Free(h)
	// Drain the cache until the same slot is reallocated: the new
	// allocation must not be readable through the old handle.
	var reused Handle
	var live []Handle
	for i := 0; i < 10*cacheBatches*bytesBatch; i++ {
		nh := c.Alloc([]byte("recycled payload"))
		if sameSlot(nh, h) {
			reused = nh
			break
		}
		live = append(live, nh)
	}
	if reused == 0 {
		t.Fatal("slot never recycled")
	}
	if _, ok := b.Read(h, nil); ok {
		t.Fatal("stale handle read the recycled slot")
	}
	if got, ok := b.Read(reused, nil); !ok || string(got) != "recycled payload" {
		t.Fatalf("fresh handle unreadable: %q, %v", got, ok)
	}
	for _, lh := range live {
		c.Free(lh)
	}
	c.Free(reused)
}

func TestBytesDoubleFreePanics(t *testing.T) {
	b := NewBytes()
	c := b.NewCache()
	h := c.Alloc([]byte("x"))
	c.Free(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Free(h)
}

// TestBytesConcurrentChurn hammers the arena from several goroutines:
// each owns a cache and continuously allocates, reads back (must match
// exactly — live handles are never torn), frees, and probes other
// goroutines' published handles (which may be stale by the time they
// are read: Read must then either return the exact published payload or
// report !ok, never garbage). Run under -race this also proves the
// word-atomic slot protocol is data-race-free.
func TestBytesConcurrentChurn(t *testing.T) {
	const (
		workers = 4
		rounds  = 2000
	)
	b := NewBytes()
	var published [workers]atomic.Uint64 // handle currently readable (racy by design)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := b.NewCache()
			var buf []byte
			for i := 0; i < rounds; i++ {
				n := (id*31 + i*17) % 512
				v := make([]byte, n)
				for j := range v {
					v[j] = byte(id ^ j ^ i)
				}
				h := c.Alloc(v)
				var ok bool
				if buf, ok = b.Read(h, buf); !ok || !bytes.Equal(buf, v) {
					errs <- fmt.Errorf("worker %d round %d: own live handle misread", id, i)
					return
				}
				published[id].Store(uint64(h))
				// Probe a neighbour's latest handle: may already be stale.
				if ph := Handle(published[(id+1)%workers].Load()); ph != 0 {
					if pv, ok := b.Read(ph, nil); ok {
						// A successful read must be internally consistent:
						// every payload byte was written by one Alloc, so the
						// first byte determines the rest.
						for j := range pv {
							if pv[j]^byte(j) != pv[0] {
								errs <- fmt.Errorf("worker %d round %d: torn foreign read", id, i)
								return
							}
						}
					}
				}
				c.Free(h)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if out := b.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after balanced churn", out)
	}
}
