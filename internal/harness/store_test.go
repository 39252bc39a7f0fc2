package harness_test

import (
	"testing"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/harness"
	"pop/internal/workload"
)

// TestRunStoreAllPolicies smoke-runs the store trial under every policy
// with the full mix (batches, scans, deletes) and checks the core
// accounting: ops flow, every served value passes its checksum, and
// per-class counters sum to the total.
func TestRunStoreAllPolicies(t *testing.T) {
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res, err := harness.RunStore(harness.StoreConfig{
				Policy:    p,
				Threads:   2,
				Duration:  30 * time.Millisecond,
				Keys:      2048,
				Shards:    4,
				OpLatency: true,
				Seed:      7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.ValueErrors != 0 {
				t.Fatalf("%d value checksum failures", res.ValueErrors)
			}
			var sum uint64
			for c := workload.StoreOp(0); int(c) < workload.NumStoreOps; c++ {
				sum += res.OpCounts[c]
			}
			if sum != res.Ops {
				t.Fatalf("class counts sum to %d, Ops = %d", sum, res.Ops)
			}
			if res.OpCounts[workload.StoreMGet] > 0 && res.Store.Batches == 0 {
				t.Fatal("mget ops ran but the store counted no batches")
			}
			if p != core.NR && res.LeakedAfter != 0 {
				t.Fatalf("%d leaked after flush", res.LeakedAfter)
			}
			if p == core.NR && res.Store.Overwrites > 0 && res.LeakedAfter == 0 {
				t.Fatal("NR reclaimed retired values")
			}
		})
	}
}

// TestRunStoreZipf checks the Zipfian path end to end: the run
// completes, serves verified values, and (with a skewed population) a
// hot key set absorbs repeated overwrites without value errors.
func TestRunStoreZipf(t *testing.T) {
	res, err := harness.RunStore(harness.StoreConfig{
		Policy:   core.EpochPOP,
		Threads:  2,
		Duration: 30 * time.Millisecond,
		Keys:     4096,
		Dist:     workload.Zipf,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.ValueErrors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.ValueErrors)
	}
}

// TestRunStoreValidation checks config error paths.
func TestRunStoreValidation(t *testing.T) {
	if _, err := harness.RunStore(harness.StoreConfig{Threads: 0, Keys: 100}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := harness.RunStore(harness.StoreConfig{Threads: 1, Keys: 1}); err == nil {
		t.Fatal("tiny key population accepted")
	}
	if _, err := harness.RunStore(harness.StoreConfig{
		Threads: 1, Keys: 128, Backing: "hmht",
		Mix: workload.StoreMix{GetPct: 50, ScanPct: 50},
	}); err == nil {
		t.Fatal("scan mix on unordered backing accepted")
	}
	if _, err := harness.RunStore(harness.StoreConfig{
		Threads: 1, Keys: 128,
		Mix: workload.StoreMix{GetPct: 50},
	}); err == nil {
		t.Fatal("mix not summing to 100 accepted")
	}
}

// TestRunStoreUnorderedBacking runs a scan-free mix on the hash-table
// backing (batching but no ordered scans).
func TestRunStoreUnorderedBacking(t *testing.T) {
	res, err := harness.RunStore(harness.StoreConfig{
		Policy:   core.EBR,
		Threads:  2,
		Duration: 20 * time.Millisecond,
		Keys:     1024,
		Backing:  "hmht",
		Mix:      workload.StoreMix{GetPct: 60, PutPct: 20, MGetPct: 15, DeletePct: 5},
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.ValueErrors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.ValueErrors)
	}
}

// TestRunStoreSampledBurst runs a sampled store trial with the chaos
// injectors windowed to the middle of the run: the result must carry a
// timeline that telescopes (chaos.CheckTimeline), the burst must be
// visible as nonzero injector activity, and the chaos window must not
// perturb the run's value correctness.
func TestRunStoreSampledBurst(t *testing.T) {
	res, err := harness.RunStore(harness.StoreConfig{
		Policy:      core.EpochPOP,
		Threads:     4,
		Duration:    300 * time.Millisecond,
		Keys:        2048,
		Shards:      4,
		Groups:      4,
		Dist:        workload.Zipf,
		Chaos:       chaos.Config{Stalls: 2},
		ChaosStart:  75 * time.Millisecond,
		ChaosStop:   150 * time.Millisecond,
		SampleEvery: 20 * time.Millisecond,
		Reclaim:     core.Options{ReclaimThreshold: 256},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("sampled run returned no timeline")
	}
	tl := res.Timeline
	if len(tl.Samples) == 0 {
		t.Fatal("timeline has no samples")
	}
	iv := chaos.Invariants{Policy: core.EpochPOP}
	if vs := iv.CheckTimeline(tl); len(vs) != 0 {
		t.Fatalf("timeline invariant violations: %v", vs)
	}
	if vs := iv.CheckValueErrors(res.ValueErrors); len(vs) != 0 {
		t.Fatalf("value errors under burst: %v", vs)
	}
	if res.Chaos.Stalls == 0 {
		t.Error("burst window completed no stall windows")
	}
	if res.Chaos.Ops == 0 {
		t.Error("burst injectors issued no ops")
	}
	// The timeline's op count telescopes to what the workers did.
	if tl.FinalOps == 0 {
		t.Error("timeline recorded no worker ops")
	}
}
