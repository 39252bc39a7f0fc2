package harness_test

import (
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/harness"
	"pop/internal/workload"
)

func TestRunAllPoliciesAllStructures(t *testing.T) {
	for _, dsName := range harness.DSNames() {
		for _, p := range core.Policies() {
			res, err := harness.Run(harness.Config{
				DS:               dsName,
				Policy:           p,
				Threads:          3,
				Duration:         30 * time.Millisecond,
				KeyRange:         512,
				Mix:              workload.UpdateHeavy,
				ReclaimThreshold: 64,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", dsName, p, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%v: zero ops", dsName, p)
			}
			if p != core.NR && res.LeakedAfter != 0 {
				t.Fatalf("%s/%v: %d nodes leaked after flush", dsName, p, res.LeakedAfter)
			}
			if p == core.NR && res.Reclaim.Frees != 0 {
				t.Fatalf("%s/%v: NR freed nodes", dsName, p)
			}
		}
	}
}

func TestPrefillHitsTarget(t *testing.T) {
	res, err := harness.Run(harness.Config{
		DS:       harness.DSHashTable,
		Policy:   core.EBR,
		Threads:  2,
		Duration: 10 * time.Millisecond,
		KeyRange: 10000,
		Mix:      workload.ReadHeavy,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Prefill targets KeyRange/2 keys; peak outstanding must be at least
	// that (minus reclaim noise, plus churn).
	if res.PeakResident < 4000 {
		t.Fatalf("peak resident %d, want >= 4000 (prefill missed)", res.PeakResident)
	}
}

func TestLongReadsRolesCount(t *testing.T) {
	res, err := harness.Run(harness.Config{
		DS:               harness.DSHarrisMichaelList,
		Policy:           core.HazardPtrPOP,
		Threads:          4,
		Duration:         40 * time.Millisecond,
		KeyRange:         2000,
		LongReads:        true,
		ReclaimThreshold: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadOps == 0 {
		t.Fatal("long-reads run recorded no reads")
	}
	if res.ReadOps == res.Ops {
		t.Fatal("long-reads run recorded no updates")
	}
}

func TestStallInjection(t *testing.T) {
	// With a stalling worker, EBR must accumulate garbage (not robust),
	// while EpochPOP must keep reclaiming (robust). We compare end-of-run
	// unreclaimed counts.
	run := func(p core.Policy) int64 {
		res, err := harness.Run(harness.Config{
			DS:               harness.DSHarrisMichaelList,
			Policy:           p,
			Threads:          3,
			Duration:         120 * time.Millisecond,
			KeyRange:         256,
			ReclaimThreshold: 32,
			StallEvery:       time.Millisecond,
			StallLength:      50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Unreclaimed
	}
	ebr := run(core.EBR)
	epop := run(core.EpochPOP)
	if ebr == 0 {
		t.Skip("stall did not pin EBR reclamation this run (scheduling)")
	}
	if epop >= ebr {
		t.Fatalf("EpochPOP unreclaimed (%d) not better than EBR (%d) under stall", epop, ebr)
	}
}

// TestThroughputOverMeasuredElapsed: rates divide by the measured phase,
// not the configured one. The staller is mid-stall when stop fires (a
// stall every millisecond, each ten times the run's length), so the
// phase outlasts Duration by at least the time it takes to notice.
func TestThroughputOverMeasuredElapsed(t *testing.T) {
	const dur = 30 * time.Millisecond
	res, err := harness.Run(harness.Config{
		DS:          harness.DSHarrisMichaelList,
		Policy:      core.EpochPOP,
		Threads:     2,
		Duration:    dur,
		KeyRange:    256,
		StallEvery:  time.Millisecond,
		StallLength: 10 * dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= dur {
		t.Fatalf("Elapsed %v, want more than the configured %v", res.Elapsed, dur)
	}
	if want := float64(res.Ops) / res.Elapsed.Seconds(); res.Throughput != want {
		t.Fatalf("Throughput %v, want Ops/Elapsed = %v", res.Throughput, want)
	}
	if want := float64(res.ReadOps) / res.Elapsed.Seconds(); res.ReadTput != want {
		t.Fatalf("ReadTput %v, want ReadOps/Elapsed = %v", res.ReadTput, want)
	}
}

// TestRangeSweepBothScanners is the acceptance probe for the
// cross-structure range-query dimension: a scan-bearing mix on each
// RangeScanner (skiplist and (a,b)-tree) must complete under every
// policy, record range operations, scanned keys and per-scan latencies,
// and leak nothing on robust policies.
func TestRangeSweepBothScanners(t *testing.T) {
	for _, dsName := range []string{harness.DSSkipList, harness.DSABTree} {
		for _, p := range core.Policies() {
			res, err := harness.Run(harness.Config{
				DS:               dsName,
				Policy:           p,
				Threads:          3,
				Duration:         40 * time.Millisecond,
				KeyRange:         2048,
				Mix:              workload.Mix{ContainsPct: 80, InsertPct: 5, DeletePct: 5, RangePct: 10},
				RangeSpan:        64,
				ReclaimThreshold: 128,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", dsName, p, err)
			}
			if res.RangeOps == 0 || res.RangeTput == 0 {
				t.Fatalf("%s/%v: no range queries recorded (ops=%d)", dsName, p, res.RangeOps)
			}
			if res.RangeKeys == 0 {
				t.Fatalf("%s/%v: scans returned no keys over a prefilled structure", dsName, p)
			}
			if res.Ops <= res.RangeOps {
				t.Fatalf("%s/%v: range ops %d not a subset of total %d", dsName, p, res.RangeOps, res.Ops)
			}
			if res.ScanLat == nil {
				t.Fatalf("%s/%v: no scan-latency histogram for a range-bearing mix", dsName, p)
			}
			if res.ScanLat.Count() != res.RangeOps {
				t.Fatalf("%s/%v: histogram holds %d scans, RangeOps = %d", dsName, p, res.ScanLat.Count(), res.RangeOps)
			}
			p50, p99 := res.ScanLat.Quantile(0.50), res.ScanLat.Quantile(0.99)
			if p50 <= 0 || p99 < p50 || float64(res.ScanLat.Max()) < p99 {
				t.Fatalf("%s/%v: implausible latency quantiles p50=%v p99=%v max=%d", dsName, p, p50, p99, res.ScanLat.Max())
			}
			if p != core.NR && res.LeakedAfter != 0 {
				t.Fatalf("%s/%v: %d nodes leaked after flush", dsName, p, res.LeakedAfter)
			}
		}
	}
}

// TestScanLatAbsentWithoutRanges: mixes without scans must not pay for
// (or report) a histogram.
func TestScanLatAbsentWithoutRanges(t *testing.T) {
	res, err := harness.Run(harness.Config{
		DS:       harness.DSSkipList,
		Policy:   core.EBR,
		Threads:  1,
		Duration: 10 * time.Millisecond,
		KeyRange: 256,
		Mix:      workload.UpdateHeavy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanLat != nil {
		t.Fatal("scan-latency histogram present for a mix without range queries")
	}
}

// TestRangeMixRequiresScanner: structures without range support must be
// rejected up front, not crash mid-run — and RangeCapable must agree
// with what Run accepts.
func TestRangeMixRequiresScanner(t *testing.T) {
	for _, dsName := range []string{harness.DSHarrisMichaelList, harness.DSLazyList, harness.DSHashTable, harness.DSExternalBST} {
		if harness.RangeCapable(dsName) {
			t.Fatalf("RangeCapable(%s) = true", dsName)
		}
		_, err := harness.Run(harness.Config{
			DS:       dsName,
			Policy:   core.EBR,
			Threads:  1,
			KeyRange: 128,
			Mix:      workload.ScanHeavy,
		})
		if err == nil {
			t.Fatalf("%s accepted a range-bearing mix", dsName)
		}
	}
	for _, dsName := range []string{harness.DSSkipList, harness.DSABTree} {
		if !harness.RangeCapable(dsName) {
			t.Fatalf("RangeCapable(%s) = false", dsName)
		}
	}
	if harness.RangeCapable("nope") {
		t.Fatal(`RangeCapable("nope") = true`)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := harness.Run(harness.Config{DS: "hml", Threads: 0, KeyRange: 10}); err == nil {
		t.Fatal("accepted zero threads")
	}
	if _, err := harness.Run(harness.Config{DS: "hml", Threads: 1, KeyRange: 1}); err == nil {
		t.Fatal("accepted key range 1")
	}
	if _, err := harness.Run(harness.Config{DS: "nope", Threads: 1, KeyRange: 10}); err == nil {
		t.Fatal("accepted unknown structure")
	}
	if _, err := harness.Run(harness.Config{DS: "hml", Threads: 1, KeyRange: 10,
		Mix: workload.Mix{ContainsPct: 50, InsertPct: 10, DeletePct: 10}}); err == nil {
		t.Fatal("accepted invalid mix")
	}
	if _, err := harness.Run(harness.Config{DS: "skl", Threads: 1, KeyRange: 10,
		Mix: workload.Mix{ContainsPct: 50, InsertPct: 25, DeletePct: 25, RangePct: 25}}); err == nil {
		t.Fatal("accepted mix summing past 100")
	}
}

// TestKVMixAllStructures is the acceptance probe for the map contract:
// the KV-serving mix (get/put/overwrite/delete) must run on every
// structure, split its counters per op class, verify every served
// value's checksum (zero failures), and populate per-op-class latency
// histograms whose counts match the class counters.
func TestKVMixAllStructures(t *testing.T) {
	for _, dsName := range harness.DSNames() {
		for _, p := range []core.Policy{core.EBR, core.HP, core.NBR, core.EpochPOP} {
			res, err := harness.Run(harness.Config{
				DS:               dsName,
				Policy:           p,
				Threads:          3,
				Duration:         40 * time.Millisecond,
				KeyRange:         1024,
				Mix:              workload.KVStore,
				OpLatency:        true,
				ReclaimThreshold: 64,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", dsName, p, err)
			}
			if res.ValueErrors != 0 {
				t.Fatalf("%s/%v: %d value checksum failures (stale values served)", dsName, p, res.ValueErrors)
			}
			var sum uint64
			for c := harness.OpClass(0); c < harness.NumOpClasses; c++ {
				sum += res.OpCounts[c]
			}
			if sum != res.Ops {
				t.Fatalf("%s/%v: per-class counts sum to %d, Ops = %d", dsName, p, sum, res.Ops)
			}
			if res.OpCounts[harness.OpScan] != 0 {
				t.Fatalf("%s/%v: kv mix recorded scans", dsName, p)
			}
			for _, c := range []harness.OpClass{harness.OpGet, harness.OpPut, harness.OpOverwrite, harness.OpDelete} {
				if res.OpCounts[c] == 0 {
					t.Fatalf("%s/%v: no %v operations in a kv run", dsName, p, c)
				}
				h := res.OpLat[c]
				if h == nil {
					t.Fatalf("%s/%v: no %v latency histogram with OpLatency set", dsName, p, c)
				}
				if h.Count() != res.OpCounts[c] {
					t.Fatalf("%s/%v: %v histogram holds %d ops, counter says %d", dsName, p, c, h.Count(), res.OpCounts[c])
				}
				if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 <= 0 || p99 < p50 {
					t.Fatalf("%s/%v: implausible %v quantiles p50=%v p99=%v", dsName, p, c, p50, p99)
				}
			}
			if p != core.NR && res.LeakedAfter != 0 {
				t.Fatalf("%s/%v: %d nodes leaked after flush", dsName, p, res.LeakedAfter)
			}
		}
	}
}

// TestOverwritesRetireOnReplaceNodeStructures pins the overwrite
// strategies' reclamation signature: an overwrite-only run on a
// replace-node structure must retire roughly one node per overwrite,
// while the in-place structures retire none.
func TestOverwritesRetireOnReplaceNodeStructures(t *testing.T) {
	run := func(dsName string) harness.Result {
		res, err := harness.Run(harness.Config{
			DS:               dsName,
			Policy:           core.EBR,
			Threads:          2,
			Duration:         30 * time.Millisecond,
			KeyRange:         64, // saturated after prefill: almost every Put overwrites
			Mix:              workload.Mix{ContainsPct: 0, OverwritePct: 100},
			ReclaimThreshold: 64,
		})
		if err != nil {
			t.Fatalf("%s: %v", dsName, err)
		}
		return res
	}
	for _, dsName := range []string{harness.DSHarrisMichaelList, harness.DSSkipList, harness.DSABTree, harness.DSHashTable} {
		res := run(dsName)
		if ow := res.OpCounts[harness.OpOverwrite]; res.Reclaim.Retires < uint64(ow/2) {
			t.Fatalf("%s: %d retires for %d overwrites — replace-node strategy not retiring", dsName, res.Reclaim.Retires, ow)
		}
	}
	for _, dsName := range []string{harness.DSLazyList, harness.DSExternalBST} {
		res := run(dsName)
		if ow := res.OpCounts[harness.OpOverwrite]; res.Reclaim.Retires > uint64(ow/10) {
			t.Fatalf("%s: %d retires for %d overwrites — in-place strategy should retire ~none", dsName, res.Reclaim.Retires, ow)
		}
	}
}

// TestOpLatAbsentByDefault: without OpLatency the per-op histograms
// must stay nil (figure reproductions must not pay the clock reads).
func TestOpLatAbsentByDefault(t *testing.T) {
	res, err := harness.Run(harness.Config{
		DS:       harness.DSHarrisMichaelList,
		Policy:   core.EBR,
		Threads:  1,
		Duration: 10 * time.Millisecond,
		KeyRange: 256,
		Mix:      workload.KVStore,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := harness.OpClass(0); c < harness.NumOpClasses; c++ {
		if res.OpLat[c] != nil {
			t.Fatalf("%v histogram present without OpLatency", c)
		}
	}
}
