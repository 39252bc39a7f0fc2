// Web-cache scenario: the store layer as a page cache under skewed
// traffic, with a serving pool that resizes live.
//
// Serving goroutines answer requests for "pages" whose popularity is
// Zipfian (a few pages absorb most hits, the classic web shape). A
// miss renders the page (here: synthesizes a payload) and fills the
// cache; a periodic invalidation storm overwrites the hottest pages —
// and every overwrite retires the replaced payload through the
// domain's reclamation policy, so cache churn is reclamation churn.
// Page loads that need several assets fetch them with one batched
// multi-get (one protected operation per member domain) and fill the
// missing ones with one batched multi-put, and a background "warmer"
// iterates the whole cache with a value-returning scan.
//
// The pool scales while the cache stays loaded: traffic arrives in
// three waves (2 → 6 → 2 workers), and every worker leases its group
// handle from the store's domain group (Store.Acquire / Release) only
// for its wave — departing workers donate any unreclaimed retires to
// the member domains for adoption, and scale-up re-leases the same
// slots. The cache's 8 shards split across 2 member domains, so a
// reclamation pass pings only the workers that actually touched its
// member's shards. The final lifecycle line shows the turnover: more
// acquires than slots, peak leases well under the total worker count.
//
//	go run ./examples/webcache
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pop"
)

const (
	maxWorkers = 6 // serving-pool capacity (wave 2's width)
	pages      = 4096
	requests   = 20_000 // per worker per wave
	assets     = 8      // per composite page load
)

func pageKey(i uint64) string { return fmt.Sprintf("page:%05d", i%pages) }

func render(key string, version uint64) []byte {
	return []byte(fmt.Sprintf("<html><!-- %s v%d -->%s</html>", key, version, key))
}

// serve answers one worker's worth of requests, leasing a group
// handle from the cache's domain group for exactly this worker's
// lifetime.
func serve(cache *pop.Store, id int, hits, misses, invalidations *atomic.Uint64) {
	h, err := cache.Acquire()
	if err != nil {
		panic(err) // group sized for the peak wave; cannot happen
	}
	defer cache.Release(h)

	// Zipf-ish skew via repeated halving: rank r served with
	// probability ~2^-r over buckets of the page space.
	state := uint64(id)*0x9e3779b97f4a7c15 + 12345
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	skewed := func() uint64 {
		span := uint64(pages)
		for next()%2 == 0 && span > 8 {
			span /= 2 // hotter half
		}
		return next() % span
	}
	var buf []byte
	var batch pop.StoreBatch
	keys := make([]string, assets)
	var missed []string
	var fills [][]byte
	for i := 0; i < requests; i++ {
		switch next() % 16 {
		case 0: // invalidation: overwrite a hot page (value retires)
			k := pageKey(skewed() % 64)
			cache.Put(h, k, render(k, uint64(i)))
			invalidations.Add(1)
		case 1: // composite page: batch-fetch its assets
			for a := range keys {
				keys[a] = pageKey(skewed() + uint64(a))
			}
			cache.GetBatch(h, keys, &batch)
			missed, fills = missed[:0], fills[:0]
			for a := range keys {
				if batch.OK[a] {
					hits.Add(1)
				} else {
					misses.Add(1)
					missed = append(missed, keys[a])
					fills = append(fills, render(keys[a], 0))
				}
			}
			if len(missed) > 0 {
				cache.PutBatch(h, missed, fills, &batch)
			}
		default: // plain page hit
			k := pageKey(skewed())
			var ok bool
			if buf, ok = cache.Get(h, k, buf); ok {
				hits.Add(1)
			} else {
				misses.Add(1)
				cache.Put(h, k, render(k, 0))
			}
		}
	}
}

func main() {
	group := pop.NewDomainGroup(pop.EpochPOP, 2, maxWorkers+1, &pop.Options{
		ReclaimThreshold: 2048,
	})
	// The warmer below scans, so the store must be ordered.
	cache, err := pop.NewStore(group, &pop.StoreOptions{Shards: 8, Ordered: true})
	if err != nil {
		panic(err)
	}

	var hits, misses, invalidations atomic.Uint64

	// Cache warmer: a long-lived thread running value-returning scans
	// across the whole hashed key space while the pool resizes around
	// it — its scan reservations must survive every lease turnover.
	warmer, err := cache.Acquire()
	if err != nil {
		panic(err)
	}
	var warmed atomic.Uint64
	warmerDone := make(chan struct{})
	stopWarmer := make(chan struct{})
	go func() {
		defer close(warmerDone)
		defer func() {
			warmer.Flush()
			cache.Release(warmer)
		}()
		for round := 0; ; round++ {
			// Let the serving side make progress between sweeps (and
			// before the first one, so there is something to warm).
			target := uint64(round+1) * 2 * requests / 5
			for hits.Load()+misses.Load() < target {
				select {
				case <-stopWarmer:
					return
				default:
					runtime.Gosched()
				}
			}
			cache.Scan(warmer, -1<<63+1, 1<<63-2, func(_ int64, v []byte) bool {
				warmed.Add(uint64(len(v)))
				return true
			})
		}
	}()

	// Three traffic waves against the same loaded cache: scale the
	// serving pool 2 → 6 → 2. Each wave's workers lease handles on
	// entry and release them on exit.
	for wave, workers := range []int{2, maxWorkers, 2} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				serve(cache, wave*maxWorkers+id, &hits, &misses, &invalidations)
			}(w)
		}
		wg.Wait()
		lc := group.Lifecycle()
		fmt.Printf("wave %d (%d workers): %d slots leased now, peak %d, %d releases so far\n",
			wave+1, workers, lc.Leased, lc.Peak, lc.Releases)
	}
	close(stopWarmer)
	<-warmerDone

	// Final drain from a fresh lease: adopts whatever departed workers
	// donated.
	collector, err := cache.Acquire()
	if err != nil {
		panic(err)
	}
	collector.Flush()

	st := cache.Stats()
	ds := group.Stats()
	rs := group.ReclaimStats()
	lc := group.Lifecycle()
	total := hits.Load() + misses.Load()
	fmt.Printf("served %d lookups: %.1f%% hit rate (%d invalidation overwrites)\n",
		total, 100*float64(hits.Load())/float64(total), invalidations.Load())
	fmt.Printf("store: %d entries, %d batches, %d batched puts, %d scans (%d pairs, %d bytes warmed), %d stale-read retries\n",
		cache.Size(collector), st.Batches, st.PutBatches, st.Scans, st.ScanPairs, warmed.Load(), st.StaleReads)
	fmt.Printf("values: %d allocated, %d freed, %d live\n",
		st.Values.Allocs, st.Values.Frees, st.Values.Outstanding)
	fmt.Printf("reclamation: %d node retires (values free with them), %d frees, %d pings (%.1f threads scanned per pass across %d members)\n",
		ds.Retires, ds.Frees, ds.PingsSent, rs.ScannedPerPass, group.Members())
	fmt.Printf("lifecycle: %d slots served %d leases (peak %d concurrent), %d orphan nodes donated, %d adopted\n",
		lc.Slots, lc.Releases+uint64(lc.Leased), lc.Peak, lc.OrphansDonated, lc.OrphansAdopted)
	cache.Release(collector)
}
