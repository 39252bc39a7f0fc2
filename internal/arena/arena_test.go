package arena_test

import (
	"sync"
	"testing"
	"testing/quick"

	"pop/internal/arena"
)

type payload struct {
	a, b int64
}

func TestGetPutRoundTrip(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	c := p.NewCache()
	v := c.Get()
	v.a, v.b = 1, 2
	c.Put(v)
	st := p.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecyclesSlots(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	c := p.NewCache()
	v1 := c.Get()
	c.Put(v1)
	v2 := c.Get()
	if v1 != v2 {
		t.Fatal("pool did not recycle the freed slot LIFO")
	}
}

func TestSeqParity(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	c := p.NewCache()
	v := c.Get()
	if arena.Seq(v)%2 != 1 {
		t.Fatalf("allocated slot has even seq %d", arena.Seq(v))
	}
	c.Put(v)
	if arena.Seq(v)%2 != 0 {
		t.Fatalf("freed slot has odd seq %d", arena.Seq(v))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	c := p.NewCache()
	v := c.Get()
	c.Put(v)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Put(v)
}

func TestResetAndPoisonHooks(t *testing.T) {
	resets, poisons := 0, 0
	p := arena.NewPool[payload](
		func(v *payload) { resets++; *v = payload{} },
		func(v *payload) { poisons++; v.a = -0xDEAD },
	)
	c := p.NewCache()
	v := c.Get()
	if resets != 1 {
		t.Fatalf("resets = %d", resets)
	}
	v.a = 7
	c.Put(v)
	if poisons != 1 {
		t.Fatalf("poisons = %d", poisons)
	}
	if v.a != -0xDEAD {
		t.Fatal("poison did not scramble the payload")
	}
	v2 := c.Get()
	if v2.a != 0 {
		t.Fatal("reset did not clear recycled payload")
	}
}

func TestCrossThreadFreeMigration(t *testing.T) {
	// Thread A allocates, thread B frees (the reclaimer pattern); the
	// counters must balance and B's cache must absorb the nodes.
	p := arena.NewPool[payload](nil, nil)
	a, b := p.NewCache(), p.NewCache()
	const n = 5000
	ch := make(chan *payload, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ch <- a.Get()
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		for v := range ch {
			b.Put(v)
		}
	}()
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after balanced alloc/free", got)
	}
}

func TestManyConcurrentCaches(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.NewCache()
			live := make([]*payload, 0, 64)
			for i := 0; i < rounds; i++ {
				live = append(live, c.Get())
				if len(live) == 64 {
					for _, v := range live {
						c.Put(v)
					}
					live = live[:0]
				}
			}
			for _, v := range live {
				c.Put(v)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("Outstanding = %d", st.Outstanding)
	}
	if st.Allocs != workers*rounds {
		t.Fatalf("Allocs = %d, want %d", st.Allocs, workers*rounds)
	}
}

// TestQuickAllocFreeSequences drives a cache with arbitrary alloc/free
// tapes and checks the outstanding count is always len(live).
func TestQuickAllocFreeSequences(t *testing.T) {
	prop := func(tape []bool) bool {
		p := arena.NewPool[payload](nil, nil)
		c := p.NewCache()
		var live []*payload
		for _, alloc := range tape {
			if alloc || len(live) == 0 {
				live = append(live, c.Get())
			} else {
				v := live[len(live)-1]
				live = live[:len(live)-1]
				c.Put(v)
			}
			if p.Outstanding() != int64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSlabGrowth(t *testing.T) {
	p := arena.NewPool[payload](nil, nil)
	c := p.NewCache()
	var live []*payload
	for i := 0; i < 5000; i++ { // > one slab (4096)
		live = append(live, c.Get())
	}
	if st := p.Stats(); st.Slabs < 2 {
		t.Fatalf("Slabs = %d, want >= 2", st.Slabs)
	}
	for _, v := range live {
		c.Put(v)
	}
}
