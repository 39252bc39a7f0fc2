// Rangescan: ordered range queries on both range-capable structures —
// the lock-free skiplist and the (a,b)-tree — while writers churn the
// structures underneath them.
//
// Three writers per structure insert and delete odd keys; the main
// goroutine keeps scanning a window with pop.OrderedMap. Every scan is
// one long operation — its reservations stay live across every hop —
// so this is the smallest demonstration of the workload regime the
// paper's §5.1.2 long-running-reads experiment probes: cheap
// reservation publication (here EpochPOP) keeps reclamation flowing
// while scans are in flight. The two structures protect their scans in
// opposite ways (per-node reservation chains vs whole leaves), yet
// both must deliver the same guarantee: every permanently present key
// in the window, in order, every time.
//
//	go run ./examples/rangescan
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pop"
)

func main() {
	const (
		writers  = 3
		keySpace = 100_000
	)
	structures := []struct {
		name string
		mk   func(d *pop.Domain) pop.OrderedMap
	}{
		{"skiplist (per-node reservations)", pop.NewSkipListMap},
		{"abtree   (whole-leaf reservations)", pop.NewABTreeMap},
	}
	for _, s := range structures {
		domain := pop.NewDomain(pop.EpochPOP, writers+1, &pop.Options{ReclaimThreshold: 1024})
		kv := s.mk(domain)

		scanThread := domain.RegisterThread()
		// Even keys are permanent; the writers churn odd keys around them.
		for k := int64(0); k < keySpace; k += 2 {
			kv.PutIfAbsent(scanThread, k, 0)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			th := domain.RegisterThread()
			wg.Add(1)
			go func(w int, th *pop.Thread) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					// Consecutive iterations pair up: insert a key, then
					// delete that same key — every pair retires nodes.
					k := int64(((i/2)*2654435761+w*997)%(keySpace/2))*2 + 1
					if i%2 == 0 {
						kv.PutIfAbsent(th, k, 0)
					} else {
						kv.Delete(th, k)
					}
				}
			}(w, th)
		}

		var scans, keys int
		var buf []int64
		collect := func(k int64, _ uint64) bool { buf = append(buf, k); return true }
		for scans = 0; scans < 2000; scans++ {
			lo := int64(scans*61) % (keySpace - 1000)
			hi := lo + 999
			buf = buf[:0]
			kv.Scan(scanThread, lo, hi, collect)
			keys += len(buf)
			// Every scan must see all 500 permanent even keys in its
			// window, in order, whatever the writers are doing.
			even := 0
			for i, k := range buf {
				if k < lo || k > hi || (i > 0 && buf[i-1] >= k) {
					panic(fmt.Sprintf("%s: scan %d of [%d, %d] emitted %v: out of window or order",
						s.name, scans, lo, hi, buf[max(i-1, 0):i+1]))
				}
				if k%2 == 0 {
					even++
				}
			}
			if even != 500 {
				panic(fmt.Sprintf("%s: scan %d saw %d permanent keys, want 500", s.name, scans, even))
			}
		}
		stop.Store(true)
		wg.Wait()

		st := domain.Stats()
		fmt.Printf("%s: %d scans under churn, %d keys returned (avg %.1f/scan)\n",
			s.name, scans, keys, float64(keys)/float64(scans))
		fmt.Printf("  every scan saw all 500 permanent keys in its window, in order\n")
		fmt.Printf("  retired: %d  freed: %d  epoch reclaims: %d  pop escalations: %d\n",
			st.Retires, st.Frees, st.EpochReclaims, st.POPReclaims)
	}
}
