package pop_test

import (
	"sync"
	"testing"

	"pop"
	"pop/internal/ds/dstest"
)

// TestFacadeAllStructuresAllPolicies exercises the public API surface:
// every constructor under every policy, with a small concurrent workload.
func TestFacadeAllStructuresAllPolicies(t *testing.T) {
	constructors := map[string]func(d *pop.Domain) pop.Map{
		"HarrisMichaelList": pop.NewHarrisMichaelListMap,
		"LazyList":          pop.NewLazyListMap,
		"HashTable":         func(d *pop.Domain) pop.Map { return pop.NewHashTableMap(d, 1024, 6) },
		"ExternalBST":       pop.NewExternalBSTMap,
		"ABTree":            func(d *pop.Domain) pop.Map { return pop.NewABTreeMap(d) },
		"SkipList":          func(d *pop.Domain) pop.Map { return pop.NewSkipListMap(d) },
	}
	for name, mk := range constructors {
		for _, p := range pop.Policies() {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				const workers = 3
				d := pop.NewDomain(p, workers, &pop.Options{ReclaimThreshold: 64})
				kv := mk(d)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					th := d.RegisterThread()
					wg.Add(1)
					go func(w int, th *pop.Thread) {
						defer wg.Done()
						base := int64(w * 10_000)
						for k := base; k < base+300; k++ {
							if !kv.PutIfAbsent(th, k, uint64(k)) {
								t.Errorf("insert %d failed", k)
								return
							}
						}
						for k := base; k < base+300; k += 2 {
							if v, ok := kv.Delete(th, k); !ok || v != uint64(k) {
								t.Errorf("Delete(%d) = (%d, %v), want (%d, true)", k, v, ok, k)
								return
							}
						}
						for k := base; k < base+300; k++ {
							want := k%2 == 1
							if _, got := kv.Get(th, k); got != want {
								t.Errorf("Get(%d) present = %v, want %v", k, got, want)
								return
							}
						}
					}(w, th)
				}
				wg.Wait()
			})
		}
	}
}

// TestRangeSetFacade exercises the public OrderedMap scans on both
// range-capable structures: scans concurrent with updates must stay
// sorted, unique and in-bounds, and a quiescent scan must match the map
// exactly.
func TestRangeSetFacade(t *testing.T) {
	ordered := map[string]func(d *pop.Domain) pop.OrderedMap{
		"SkipList": pop.NewSkipListMap,
		"ABTree":   pop.NewABTreeMap,
	}
	for name, mk := range ordered {
		for _, p := range []pop.Policy{pop.HazardPtrPOP, pop.EpochPOP, pop.EBR, pop.NBR} {
			mk, p := mk, p
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				const workers = 3
				d := pop.NewDomain(p, workers+1, &pop.Options{ReclaimThreshold: 64})
				kv := mk(d)
				scanTh := d.RegisterThread()
				for k := int64(0); k < 1000; k += 2 {
					kv.PutIfAbsent(scanTh, k, 0)
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					th := d.RegisterThread()
					wg.Add(1)
					go func(w int, th *pop.Thread) {
						defer wg.Done()
						for i := 0; i < 4000; i++ {
							k := int64((i*31+w*7)%1000)*2 + 1 // odd keys only
							if i%2 == 0 {
								kv.PutIfAbsent(th, k, 0)
							} else {
								kv.Delete(th, k)
							}
						}
					}(w, th)
				}
				var buf []int64
				for i := 0; i < 50; i++ {
					buf = dstest.ScanKeys(kv, scanTh, 100, 900, buf)
					even := 0
					for j, k := range buf {
						if k < 100 || k > 900 || (j > 0 && buf[j-1] >= k) {
							t.Fatalf("malformed scan: %v", buf)
						}
						if k%2 == 0 {
							even++
						}
					}
					if want := (900-100)/2 + 1; even != want {
						t.Fatalf("scan saw %d permanent even keys, want %d", even, want)
					}
				}
				wg.Wait()
				if got, want := dstest.ScanCount(kv, scanTh, 0, 2000), kv.Size(scanTh); got != want {
					t.Fatalf("quiescent ScanCount = %d, Size = %d", got, want)
				}
			})
		}
	}
}

func TestParsePolicyFacade(t *testing.T) {
	p, err := pop.ParsePolicy("EpochPOP")
	if err != nil || p != pop.EpochPOP {
		t.Fatalf("ParsePolicy(EpochPOP) = %v, %v", p, err)
	}
}

func TestOutstandingTracksLiveKeys(t *testing.T) {
	d := pop.NewDomain(pop.EBR, 1, &pop.Options{ReclaimThreshold: 16})
	list := pop.NewHarrisMichaelListMap(d)
	th := d.RegisterThread()
	for k := int64(0); k < 100; k++ {
		list.PutIfAbsent(th, k, 0)
	}
	if got := list.Outstanding(); got < 100 {
		t.Fatalf("Outstanding = %d, want >= 100", got)
	}
	if got := list.Size(th); got != 100 {
		t.Fatalf("Size = %d, want 100", got)
	}
}

// TestSharedDomainAcrossStructures runs a list and a tree in one
// reclamation domain (the documented multi-structure pattern): retires
// from both node types flow through the same reclaimer and must be freed
// to their respective pools.
func TestSharedDomainAcrossStructures(t *testing.T) {
	for _, p := range []pop.Policy{pop.HazardPtrPOP, pop.EpochPOP, pop.HE, pop.EBR} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			const workers = 3
			d := pop.NewDomain(p, workers, &pop.Options{ReclaimThreshold: 64})
			list := pop.NewHarrisMichaelListMap(d)
			tree := pop.NewExternalBSTMap(d)
			var wg sync.WaitGroup
			threads := make([]*pop.Thread, workers)
			for i := range threads {
				threads[i] = d.RegisterThread()
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int, th *pop.Thread) {
					defer wg.Done()
					base := int64(w) * 100_000
					for i := int64(0); i < 2000; i++ {
						k := base + i%97
						list.PutIfAbsent(th, k, 0)
						tree.PutIfAbsent(th, k, 0)
						list.Delete(th, k)
						tree.Delete(th, k)
					}
				}(w, threads[w])
			}
			wg.Wait()
			for _, th := range threads {
				th.Flush()
			}
			if got := list.Outstanding() + tree.Outstanding(); got > 100 {
				// Only currently-linked nodes (both structures' sentinels)
				// may remain outstanding.
				t.Fatalf("outstanding after flush = %d", got)
			}
		})
	}
}

func TestStoreFacade(t *testing.T) {
	g := pop.NewDomainGroup(pop.EpochPOP, 2, 2, nil)
	// An ordered store: the default hash table has no Scan.
	s, err := pop.NewStore(g, &pop.StoreOptions{Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.Put(h, "facade:key", []byte("facade-value"))
	if v, ok := s.Get(h, "facade:key", nil); !ok || string(v) != "facade-value" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	var b pop.StoreBatch
	s.GetBatch(h, []string{"facade:key", "absent"}, &b)
	if !b.OK[0] || string(b.Vals[0]) != "facade-value" || b.OK[1] {
		t.Fatalf("GetBatch = %q/%v, %v", b.Vals[0], b.OK[0], b.OK[1])
	}
	s.PutBatch(h, []string{"facade:key", "facade:sibling"}, [][]byte{[]byte("v2"), []byte("v3")}, &b)
	if !b.OK[0] || b.OK[1] {
		t.Fatalf("PutBatch replaced = %v,%v, want true,false", b.OK[0], b.OK[1])
	}
	if v, ok := s.Get(h, "facade:key", nil); !ok || string(v) != "v2" {
		t.Fatalf("Get after PutBatch = %q, %v", v, ok)
	}
	pairs := 0
	s.Scan(h, -1<<63+1, 1<<63-2, func(int64, []byte) bool { pairs++; return true })
	if pairs != 2 {
		t.Fatalf("Scan visited %d pairs, want 2", pairs)
	}
	if !s.Delete(h, "facade:key") {
		t.Fatal("Delete failed")
	}
	// Puts counts per-key upserts (the single Put plus PutBatch's two);
	// PutBatches counts batch calls.
	if st := s.Stats(); st.Puts != 3 || st.Deletes != 1 || st.PutBatches != 1 || st.Overwrites != 1 {
		t.Fatalf("stats %+v", st)
	}
	h.Flush()
	s.Release(h)

	// Options plumb through (and invalid ones surface as errors).
	if _, err := pop.NewStore(g, &pop.StoreOptions{Shards: 1 << 10}); err == nil {
		t.Fatal("1024 shards accepted (the cap is 32)")
	}
}

// TestHandlePoolFacade exercises the exported thread-lifecycle surface:
// an elastic worker set over one map, 8 workers capped at 4 concurrent
// leases by a buffered channel, handles leased and released through a
// one-member pop.DomainGroup, with orphan adoption draining everything.
func TestHandlePoolFacade(t *testing.T) {
	pool := pop.NewDomainGroup(pop.EpochPOP, 1, 4, &pop.Options{ReclaimThreshold: 64})
	kv := pop.NewSkipListMap(pool.Member(0))

	sem := make(chan struct{}, 4) // one token per slot
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			h, err := pool.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			defer pool.Release(h)
			th := h.Member(0)
			base := int64(id * 1000)
			for k := base; k < base+200; k++ {
				kv.Put(th, k, uint64(k))
				if k%2 == 0 {
					kv.Delete(th, k)
				}
			}
		}(w)
	}
	wg.Wait()

	ch, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	collector := ch.Member(0)
	collector.Flush()
	lc := pool.Lifecycle()
	if lc.Releases != 8 {
		t.Fatalf("releases = %d, want 8", lc.Releases)
	}
	if lc.Slots > 4 {
		t.Fatalf("slots grew to %d despite the 4-slot cap", lc.Slots)
	}
	var leases uint64
	for _, n := range lc.SlotLeases {
		leases += n
	}
	if leases != 9 || pool.InUse() != 1 {
		t.Fatalf("SlotLeases sum = %d, InUse = %d; want 9 (8 workers + collector) and 1", leases, pool.InUse())
	}
	if lc.OrphanNodes != 0 {
		t.Fatalf("orphans left after flush: %+v", lc)
	}
	if got, want := kv.Outstanding(), int64(kv.Size(collector)); got != want {
		t.Fatalf("outstanding %d != live keys %d after elastic run", got, want)
	}
	pool.Release(ch)
}
