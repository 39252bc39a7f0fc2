package arena_test

import (
	"sync"
	"testing"

	"pop/internal/arena"
)

// counted is the allocator surface both exact-count tests drive: a cache
// allocates and frees, and the arena sums every cache's counts.
type counted[V any] struct {
	alloc func(c int) V // on cache c
	free  func(c int, v V)
	stats func() (allocs, frees uint64, outstanding int64)
}

// checkExactCounts runs two caches concurrently, then hands cache 0 to a
// new goroutine (its owner's lease ends; a channel is the
// happens-before edge) that frees its predecessor's live values and
// allocates more. The totals must be exact at both points, and a
// goroutine sampling them meanwhile must see each count only grow.
func checkExactCounts[V any](t *testing.T, a counted[V]) {
	const n = 3000
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	defer func() { close(stop); sampler.Wait() }()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var lastA, lastF uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			al, fr, _ := a.stats()
			if al < lastA || fr < lastF {
				t.Errorf("counts went backwards: allocs %d -> %d, frees %d -> %d", lastA, al, lastF, fr)
				return
			}
			lastA, lastF = al, fr
		}
	}()
	check := func(when string, allocs, frees uint64) {
		t.Helper()
		al, fr, out := a.stats()
		if al != allocs || fr != frees || out != int64(allocs-frees) {
			t.Fatalf("%s: allocs %d, frees %d, outstanding %d; want %d, %d, %d", when, al, fr, out, allocs, frees, allocs-frees)
		}
	}

	kept := make([][]V, 2)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v := a.alloc(c)
				if i%2 == 0 {
					a.free(c, v)
				} else {
					kept[c] = append(kept[c], v)
				}
			}
		}()
	}
	wg.Wait()
	check("two concurrent caches", 2*n, n)

	handover := make(chan []V)
	done := make(chan struct{})
	go func() { // cache 0's next owner
		defer close(done)
		for _, v := range <-handover {
			a.free(0, v)
		}
		for i := 0; i < n; i++ {
			a.free(0, a.alloc(0))
		}
	}()
	handover <- kept[0]
	<-done
	check("after cache 0 changed owner", 3*n, 2*n+n/2)
}

// TestPoolStatsExact: Pool.Stats sums its caches' counts exactly, across
// concurrent caches and a cache's change of owner.
func TestPoolStatsExact(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	caches := []*arena.ThreadCache[payload]{p.NewCache(), p.NewCache()}
	checkExactCounts(t, counted[*payload]{
		alloc: func(c int) *payload { return caches[c].Get() },
		free:  func(c int, v *payload) { caches[c].Put(v) },
		stats: func() (uint64, uint64, int64) {
			st := p.Stats()
			return st.Allocs, st.Frees, st.Outstanding
		},
	})
	// A handle-less Get counts too, and any cache may free it.
	caches[1].Put(p.Get())
	if st := p.Stats(); st.Allocs != 3*3000+1 || st.Frees != 2*3000+1500+1 || p.Outstanding() != st.Outstanding {
		t.Fatalf("after Pool.Get: %+v, Outstanding %d", st, p.Outstanding())
	}
}

// TestBytesStatsExact: Bytes.Stats sums its caches' counts exactly,
// across concurrent caches and a cache's change of owner.
func TestBytesStatsExact(t *testing.T) {
	b := arena.NewBytes()
	caches := []*arena.BytesCache{b.NewCache(), b.NewCache()}
	payload := []byte("a value longer than one word, shorter than a line")
	checkExactCounts(t, counted[arena.Handle]{
		alloc: func(c int) arena.Handle { return caches[c].Alloc(payload) },
		free:  func(c int, h arena.Handle) { caches[c].Free(h) },
		stats: func() (uint64, uint64, int64) {
			st := b.Stats()
			return st.Allocs, st.Frees, st.Outstanding
		},
	})
	if b.Outstanding() != 1500 {
		t.Fatalf("Outstanding = %d, want 1500", b.Outstanding())
	}
}
