// Quickstart: the smallest complete publish-on-ping program.
//
// It builds a hash-table map reclaimed by EpochPOP (the paper's
// recommended default: epoch-based speed with hazard-pointer
// robustness), runs a few concurrent workers, and prints the
// reclamation counters that show the scheme at work.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"pop"
)

func main() {
	const workers = 4

	// One domain per data structure. The second argument is the maximum
	// number of threads that will ever register.
	domain := pop.NewDomain(pop.EpochPOP, workers, &pop.Options{
		ReclaimThreshold: 1024, // retire-list length that triggers reclamation
	})
	kv := pop.NewHashTableMap(domain, 100_000, 6)

	// Register one Thread per goroutine up front; a Thread must only be
	// used by the goroutine that owns it.
	threads := make([]*pop.Thread, workers)
	for i := range threads {
		threads[i] = domain.RegisterThread()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, t *pop.Thread) {
			defer wg.Done()
			base := int64(w) * 1_000_000
			// Insert, overwrite, query and delete a private key range;
			// the overwrites replace nodes and the deletes unlink them,
			// so both feed retired nodes to the reclamation scheme.
			for k := base; k < base+25_000; k++ {
				kv.Put(t, k, uint64(k))
			}
			for k := base; k < base+25_000; k += 5 {
				if old, _ := kv.Put(t, k, uint64(k)+1); old != uint64(k) {
					panic(fmt.Sprintf("Put(%d) replaced %d, want %d", k, old, k))
				}
			}
			hits := 0
			for k := base; k < base+25_000; k++ {
				if _, ok := kv.Get(t, k); ok {
					hits++
				}
			}
			for k := base; k < base+25_000; k++ {
				kv.Delete(t, k)
			}
			fmt.Printf("worker %d: %d/25000 lookups hit\n", w, hits)
		}(w, threads[w])
	}
	wg.Wait()

	// Drain the retire lists now that everyone is quiescent.
	for _, t := range threads {
		t.Flush()
	}

	fmt.Printf("\nfinal size:        %d keys\n", kv.Size(threads[0]))
	fmt.Printf("outstanding nodes: %d (allocs - frees)\n", kv.Outstanding())
	st := domain.Stats()
	fmt.Printf("retired: %d  freed: %d  epoch reclaims: %d  pop escalations: %d  pings: %d\n",
		st.Retires, st.Frees, st.EpochReclaims, st.POPReclaims, st.PingsSent)
}
