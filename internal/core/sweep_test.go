package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// slot is a pool slot's shape: a node of one cache line, Header first.
type slot struct {
	Header
	_ [64 - unsafe.Sizeof(Header{})]byte
}

// scattered returns n distinct nodes picked from slabs in a seeded
// random order.
func scattered(n int, seed int64, slabs ...[]slot) []*Header {
	var all []*Header
	for _, s := range slabs {
		for i := range s {
			all = append(all, &s[i].Header)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// TestGroupByAddress checks the two things Thread.sweep relies on:
// groupByAddress is a permutation, and afterwards no node sits a whole
// stretch (span/addressGroups, rounded up to a power of two) or more
// below a node before it — which for a span of at most 4 MiB means
// the nodes of one page are adjacent and the pages ascend.
func TestGroupByAddress(t *testing.T) {
	a, b := make([]slot, 40000), make([]slot, 20000)
	cases := []struct {
		name string
		hs   []*Header
	}{
		{"empty", nil},
		{"one", scattered(1, 1, a)},
		{"two", scattered(2, 2, a)},
		{"cluster", scattered(500, 3, a[:700])}, // fewer slots than groups: a stretch is one slot, the order exact
		{"pass", scattered(24576, 4, a, b)},     // a default-threshold pass over two slabs
		{"all", scattered(60000, 5, a, b)},
	}
	addr := func(h *Header) uintptr { return uintptr(unsafe.Pointer(h)) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := map[*Header]bool{}
			lo, hi := ^uintptr(0), uintptr(0)
			for _, h := range c.hs {
				want[h] = true
				lo, hi = min(lo, addr(h)), max(hi, addr(h))
			}
			groupByAddress(c.hs)
			var stretch uintptr = 1
			for len(c.hs) > 0 && (hi-lo)/stretch >= addressGroups {
				stretch *= 2
			}
			var top uintptr // highest stretch index seen
			for i, h := range c.hs {
				if !want[h] {
					t.Fatalf("element %d is new or repeated", i)
				}
				delete(want, h)
				g := (addr(h) - lo) / stretch
				if g < top {
					t.Fatalf("element %d is in stretch %d after stretch %d", i, g, top)
				}
				top = g
			}
			if len(want) != 0 {
				t.Fatalf("%d elements lost", len(want))
			}
		})
	}
}

// TestSweepOrder pins sweep's two orders: the nodes it keeps stay in
// retire order, and the nodes it frees reach the free function grouped
// by address, whatever order they were retired in.
func TestSweepOrder(t *testing.T) {
	const n = 5000
	slab := make([]slot, n)
	d := NewDomain(HazardPtrPOP, 1, &Options{ReclaimThreshold: 2 * n})
	var freed []*Header
	typ := d.RegisterType(func(_ *Thread, h *Header) { freed = append(freed, h) })
	th := d.RegisterThread()
	defer th.Release()
	for _, h := range scattered(n, 6, slab) {
		th.OnAlloc(h, typ)
		th.Retire(h)
	}
	retired := append([]*Header(nil), th.retired...)
	// Keep every third node; free the rest.
	keep := map[*Header]bool{}
	for i := 0; i < n; i += 3 {
		keep[retired[i]] = true
	}
	th.sweep(func(h *Header) bool { return keep[h] })

	if len(th.retired) != len(keep) || len(freed) != n-len(keep) {
		t.Fatalf("kept %d and freed %d of %d, want %d kept", len(th.retired), len(freed), n, len(keep))
	}
	for i, h := range th.retired {
		if h != retired[3*i] {
			t.Fatalf("kept[%d] is not the %d-th retired node: retire order lost", i, 3*i)
		}
	}
	// n slots span fewer than addressGroups pages, so a stretch is
	// under a page: no node is freed a page or more below one freed
	// before it.
	var top uintptr
	for i, h := range freed {
		if keep[h] {
			t.Fatalf("freed[%d] was to be kept", i)
		}
		a := uintptr(unsafe.Pointer(h))
		if a+4096 <= top {
			t.Fatalf("freed[%d] lies %d bytes below a node freed before it", i, top-a)
		}
		top = max(top, a)
	}
	th.sweep(func(*Header) bool { return false })
	if len(th.retired) != 0 || len(freed) != n {
		t.Fatalf("final sweep left %d retired, %d freed of %d", len(th.retired), len(freed), n)
	}
}
