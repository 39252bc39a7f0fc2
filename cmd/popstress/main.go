// Command popstress is the torture-test driver: it runs high-churn
// workloads with deliberately tiny reclamation thresholds (maximal
// ping/reclaim traffic), optional fault injection, and verifies the
// shared reclamation invariants (internal/chaos.Invariants) after
// every trial:
//
//   - a quiescent flush drains every retire list (except NR, which leaks
//     by design);
//   - reclamation counters stay sane: frees never exceed retires, and a
//     run that retired plenty made progress;
//   - served values pass their checksums;
//   - under -store, the thread-slot lease ledger balances.
//
// No node pool poisons what it frees (core.NewNodes, their one
// constructor, passes no poison function) and nothing calls
// arena.Check, so a use-after-free is caught only where it breaks
// something checked: a
// served value failing its checksum (the chaos invariants under
// -store; the store's stale-value storm, TestStoreStaleValueDetection,
// does the same outside this driver), or a drain or counter invariant
// that does not balance. A stale read on the key-only map matrix can go
// unseen; ROADMAP item 12(a) is the oracle that would catch it. Exit
// status 0 means every trial passed.
//
// Two modes:
//
//	popstress            # map matrix: every structure × policy, update-heavy
//	popstress -store     # KV front under the chaos bundle: stalled readers,
//	                     # GC pressure, lease churn, shard hotspot — per policy
//
// Usage:
//
//	popstress                          # full matrix, quick
//	popstress -duration 2s -threads 8  # heavier
//	popstress -ds hml -policy EpochPOP -stall
//	popstress -store -duration 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/harness"
	"pop/internal/workload"
)

func main() {
	var (
		dsFlag     = flag.String("ds", "", "single data structure (default: all)")
		policyFlag = flag.String("policy", "", "single policy (default: all)")
		threads    = flag.Int("threads", 4, "worker threads per trial")
		duration   = flag.Duration("duration", 300*time.Millisecond, "per-trial duration")
		keyRange   = flag.Int64("keys", 1024, "key range")
		stall      = flag.Bool("stall", false, "matrix mode: inject a periodically delayed thread")
		storeMode  = flag.Bool("store", false, "store chaos mode: the KV front under the full injector bundle instead of the map matrix")
		seed       = flag.Uint64("seed", uint64(time.Now().UnixNano()), "trial seed")
	)
	flag.Parse()

	policies := core.Policies()
	if *policyFlag != "" {
		p, err := core.ParsePolicy(*policyFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popstress: %v\n", err)
			os.Exit(2)
		}
		policies = []core.Policy{p}
	}

	var failures int
	if *storeMode {
		failures = storeChaos(policies, *threads, *duration, *keyRange, *seed)
	} else {
		structures := harness.DSNames()
		if *dsFlag != "" {
			structures = []string{*dsFlag}
		}
		failures = matrix(structures, policies, *threads, *duration, *keyRange, *stall, *seed)
	}
	if failures > 0 {
		fmt.Printf("popstress: %d failures\n", failures)
		os.Exit(1)
	}
	fmt.Println("popstress: all trials passed")
}

// tuning is both modes' reclamation setting: a tiny retire threshold
// and epoch cadence (constant reclamation pressure) and a small
// Crystalline batch.
var tuning = core.Options{ReclaimThreshold: 48, EpochFreq: 8, BatchSize: 8}

// matrix runs every structure × policy under the update-heavy mix with
// tiny thresholds and checks the shared invariants.
func matrix(structures []string, policies []core.Policy, threads int, duration time.Duration, keyRange int64, stall bool, seed uint64) int {
	failures := 0
	for _, dsName := range structures {
		for _, p := range policies {
			cfg := harness.Config{
				DS:       dsName,
				Policy:   p,
				Threads:  threads,
				Duration: duration,
				KeyRange: keyRange,
				Mix:      workload.UpdateHeavy,
				Reclaim:  tuning,
				Seed:     seed,
			}
			if stall {
				cfg.StallEvery = 2 * time.Millisecond
				cfg.StallLength = duration / 5
			}
			res, err := harness.Run(cfg)
			if err != nil {
				fmt.Printf("FAIL %-5s %-13v run error: %v\n", dsName, p, err)
				failures++
				continue
			}
			if err := check(p, res.Core); err != nil {
				fmt.Printf("FAIL %-5s %-13v %v\n", dsName, p, err)
				failures++
				continue
			}
			fmt.Printf("ok   %-5s %-13v ops=%-9d retires=%-8d frees=%-8d pings=%-6d maxRetire=%d\n",
				dsName, p, res.Ops, res.Reclaim.Retires, res.Reclaim.Frees,
				res.Reclaim.PingsSent, res.Reclaim.MaxRetire)
		}
	}
	return failures
}

// storeChaos runs the KV front under the full injector bundle for each
// policy and checks every shared invariant, including the value plane
// and the thread-slot lease ledger.
func storeChaos(policies []core.Policy, threads int, duration time.Duration, keyRange int64, seed uint64) int {
	failures := 0
	for _, p := range policies {
		res, err := harness.RunStore(harness.StoreConfig{
			Policy:   p,
			Threads:  threads,
			Duration: duration,
			Keys:     keyRange,
			Shards:   4,
			Seed:     seed,
			Reclaim:  tuning,
			Chaos:    chaos.Default(),
		})
		if err != nil {
			fmt.Printf("FAIL store %-13v run error: %v\n", p, err)
			failures++
			continue
		}
		// The trial's workers still hold their handles at snapshot time;
		// the injectors must have released theirs.
		leases := chaos.Invariants{Policy: p}.CheckLifecycle(res.Lifecycle, threads)
		if err := check(p, res.Core, leases...); err != nil {
			fmt.Printf("FAIL store %-13v %v\n", p, err)
			failures++
			continue
		}
		if res.Chaos.Ops == 0 {
			fmt.Printf("FAIL store %-13v chaos injectors were idle: %+v\n", p, res.Chaos)
			failures++
			continue
		}
		fmt.Printf("ok   store %-13v ops=%-9d chaosOps=%-7d stalls=%-4d leases=%-4d flips=%-4d retires=%-8d frees=%d\n",
			p, res.Ops, res.Chaos.Ops, res.Chaos.Stalls, res.Chaos.Leases, res.Chaos.Flips,
			res.Reclaim.Retires, res.Reclaim.Frees)
	}
	return failures
}

// check validates the invariants every trial shares — it did work,
// served values pass their checksums, a quiescent drain emptied every
// retire list (except under NR), the reclamation counters are sane —
// plus the mode's own violations, extra.
func check(p core.Policy, c harness.Core, extra ...chaos.Violation) error {
	if c.Ops == 0 {
		return fmt.Errorf("zero operations completed")
	}
	iv := chaos.Invariants{Policy: p}
	vs := append(iv.CheckValueErrors(c.ValueErrors), iv.CheckLeaked(c.LeakedAfter)...)
	vs = append(vs, iv.CheckCounters(c.Reclaim)...)
	return chaos.Errs(append(vs, extra...))
}
