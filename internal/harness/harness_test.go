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
				DS:       dsName,
				Policy:   p,
				Threads:  3,
				Duration: 30 * time.Millisecond,
				KeyRange: 512,
				Mix:      workload.UpdateHeavy,
				Reclaim:  core.Options{ReclaimThreshold: 64},
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

// TestPrefillHitsTarget: every runner prefills half its key
// population, so a read-only mix over uniform keys finds about half of
// what it asks for — per scanned key (Run, whose peak resident count
// must reach the prefill too), per get (RunStore, flat and with member
// affinity) and per wire get (RunServe).
func TestPrefillHitsTarget(t *testing.T) {
	const keys, span = 10000, 64
	for _, c := range []struct {
		name string
		hits func() (float64, error) // fraction of the keys read that were present
	}{
		{"Run", func() (float64, error) {
			res, err := harness.Run(harness.Config{
				DS: harness.DSSkipList, Policy: core.EBR, Threads: 3, Duration: 20 * time.Millisecond,
				KeyRange: keys, Mix: workload.Mix{RangePct: 100}, RangeSpan: span,
			})
			if err == nil && res.PeakResident < keys*4/10 {
				t.Errorf("peak resident %d, want >= %d", res.PeakResident, keys*4/10)
			}
			return float64(res.RangeKeys) / float64(res.OpCounts[workload.RangeQuery]*span), err
		}},
		{"RunStore", func() (float64, error) {
			res, err := harness.RunStore(harness.StoreConfig{
				Policy: core.EBR, Threads: 3, Duration: 20 * time.Millisecond,
				Keys: keys, Shards: 4, Mix: workload.StoreMix{GetPct: 100},
			})
			return float64(res.ServedKeys) / float64(res.Ops), err
		}},
		{"RunStore/groups", func() (float64, error) {
			res, err := harness.RunStore(harness.StoreConfig{
				Policy: core.EBR, Threads: 6, Duration: 20 * time.Millisecond,
				Keys: keys, Shards: 4, Groups: 4, Mix: workload.StoreMix{GetPct: 100},
			})
			return float64(res.ServedKeys) / float64(res.Ops), err
		}},
		{"RunServe", func() (float64, error) {
			res, err := harness.RunServe(harness.ServeConfig{
				Policy: core.EBR, Slots: 3, Conns: 2, Duration: 60 * time.Millisecond,
				Keys: keys, GetPct: 100,
			})
			return float64(res.Hits) / float64(res.Gets), err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			hits, err := c.hits()
			if err != nil {
				t.Fatal(err)
			}
			if hits < 0.42 || hits > 0.58 {
				t.Fatalf("reads hit %.3f of the keys they asked for, want about 0.5 (prefill missed its target)", hits)
			}
		})
	}
}

func TestLongReadsRolesCount(t *testing.T) {
	res, err := harness.Run(harness.Config{
		DS:        harness.DSHarrisMichaelList,
		Policy:    core.HazardPtrPOP,
		Threads:   4,
		Duration:  40 * time.Millisecond,
		KeyRange:  2000,
		LongReads: true,
		Reclaim:   core.Options{ReclaimThreshold: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads := res.OpCounts[workload.Get]; reads == 0 {
		t.Fatal("long-reads run recorded no reads")
	} else if reads == res.Ops {
		t.Fatal("long-reads run recorded no updates")
	}
}

func TestStallInjection(t *testing.T) {
	// With a stalling worker, EBR must accumulate garbage (not robust),
	// while EpochPOP must keep reclaiming (robust). We compare end-of-run
	// unreclaimed counts.
	run := func(p core.Policy) int64 {
		res, err := harness.Run(harness.Config{
			DS:          harness.DSHarrisMichaelList,
			Policy:      p,
			Threads:     3,
			Duration:    120 * time.Millisecond,
			KeyRange:    256,
			Reclaim:     core.Options{ReclaimThreshold: 32},
			StallEvery:  time.Millisecond,
			StallLength: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Unreclaimed
	}
	// Whether the stall lands while EBR has garbage to pin is up to the
	// scheduler, so rerun EBR until it does; the comparison needs that
	// garbage to mean anything.
	const tries = 5
	var ebr int64
	for i := 0; i < tries && ebr == 0; i++ {
		ebr = run(core.EBR)
	}
	if ebr == 0 {
		t.Fatalf("the stall pinned no EBR garbage in %d runs", tries)
	}
	epop := run(core.EpochPOP)
	if epop >= ebr {
		t.Fatalf("EpochPOP unreclaimed (%d) not better than EBR (%d) under stall", epop, ebr)
	}
}

// TestThroughputOverMeasuredElapsed: every runner's rates divide by the
// measured phase, not the configured one. In the map trial the staller
// is mid-stall when stop fires (a stall every millisecond, each ten
// times the run's length), so the phase outlasts Duration by at least
// the time it takes to notice.
func TestThroughputOverMeasuredElapsed(t *testing.T) {
	const dur = 30 * time.Millisecond
	for _, c := range []struct {
		name string
		run  func() (harness.Core, error)
	}{
		{"Run", func() (harness.Core, error) {
			res, err := harness.Run(harness.Config{
				DS:          harness.DSHarrisMichaelList,
				Policy:      core.EpochPOP,
				Threads:     2,
				Duration:    dur,
				KeyRange:    256,
				StallEvery:  time.Millisecond,
				StallLength: 10 * dur,
			})
			if err == nil && res.Elapsed == dur {
				t.Errorf("Elapsed %v, want more than the configured %v", res.Elapsed, dur)
			}
			if want := float64(res.OpCounts[workload.Get]) / res.Elapsed.Seconds(); err == nil && res.ReadTput != want {
				t.Errorf("ReadTput %v, want gets/Elapsed = %v", res.ReadTput, want)
			}
			return res.Core, err
		}},
		{"RunStore", func() (harness.Core, error) {
			res, err := harness.RunStore(harness.StoreConfig{Policy: core.EpochPOP, Threads: 2, Duration: dur, Keys: 1024, Shards: 2})
			if want := float64(res.ServedKeys) / res.Elapsed.Seconds(); err == nil && res.KeyTput != want {
				t.Errorf("KeyTput %v, want served keys/Elapsed = %v", res.KeyTput, want)
			}
			return res.Core, err
		}},
		{"RunServe", func() (harness.Core, error) {
			res, err := harness.RunServe(harness.ServeConfig{Policy: core.EpochPOP, Slots: 2, Conns: 2, Duration: dur, Keys: 1024})
			return res.Core, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed < dur {
				t.Fatalf("Elapsed %v, want at least the configured %v", res.Elapsed, dur)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if want := float64(res.Ops) / res.Elapsed.Seconds(); res.Throughput != want {
				t.Fatalf("Throughput %v, want Ops/Elapsed = %v", res.Throughput, want)
			}
		})
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
				DS:        dsName,
				Policy:    p,
				Threads:   3,
				Duration:  40 * time.Millisecond,
				KeyRange:  2048,
				Mix:       workload.Mix{ContainsPct: 80, InsertPct: 5, DeletePct: 5, RangePct: 10},
				RangeSpan: 64,
				Reclaim:   core.Options{ReclaimThreshold: 128},
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", dsName, p, err)
			}
			rangeOps, scanLat := res.OpCounts[workload.RangeQuery], res.OpLat[workload.RangeQuery]
			if rangeOps == 0 || res.RangeTput == 0 {
				t.Fatalf("%s/%v: no range queries recorded (ops=%d)", dsName, p, rangeOps)
			}
			if res.RangeKeys == 0 {
				t.Fatalf("%s/%v: scans returned no keys over a prefilled structure", dsName, p)
			}
			if res.Ops <= rangeOps {
				t.Fatalf("%s/%v: range ops %d not a subset of total %d", dsName, p, rangeOps, res.Ops)
			}
			if scanLat == nil {
				t.Fatalf("%s/%v: no scan-latency histogram for a range-bearing mix", dsName, p)
			}
			if scanLat.Count() != rangeOps {
				t.Fatalf("%s/%v: histogram holds %d scans, range ops = %d", dsName, p, scanLat.Count(), rangeOps)
			}
			p50, p99 := scanLat.Quantile(0.50), scanLat.Quantile(0.99)
			if p50 <= 0 || p99 < p50 || float64(scanLat.Max()) < p99 {
				t.Fatalf("%s/%v: implausible latency quantiles p50=%v p99=%v max=%d", dsName, p, p50, p99, scanLat.Max())
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
	if res.OpLat[workload.RangeQuery] != nil {
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
				DS:        dsName,
				Policy:    p,
				Threads:   3,
				Duration:  40 * time.Millisecond,
				KeyRange:  1024,
				Mix:       workload.KVStore,
				OpLatency: true,
				Reclaim:   core.Options{ReclaimThreshold: 64},
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", dsName, p, err)
			}
			if res.ValueErrors != 0 {
				t.Fatalf("%s/%v: %d value checksum failures (stale values served)", dsName, p, res.ValueErrors)
			}
			var sum uint64
			for c := workload.Op(0); int(c) < workload.NumOps; c++ {
				sum += res.OpCounts[c]
			}
			if sum != res.Ops {
				t.Fatalf("%s/%v: per-class counts sum to %d, Ops = %d", dsName, p, sum, res.Ops)
			}
			if res.OpCounts[workload.RangeQuery] != 0 {
				t.Fatalf("%s/%v: kv mix recorded scans", dsName, p)
			}
			for _, c := range []workload.Op{workload.Get, workload.Put, workload.Overwrite, workload.Delete} {
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
			DS:       dsName,
			Policy:   core.EBR,
			Threads:  2,
			Duration: 30 * time.Millisecond,
			KeyRange: 64, // saturated after prefill: almost every Put overwrites
			Mix:      workload.Mix{ContainsPct: 0, OverwritePct: 100},
			Reclaim:  core.Options{ReclaimThreshold: 64},
		})
		if err != nil {
			t.Fatalf("%s: %v", dsName, err)
		}
		return res
	}
	for _, dsName := range []string{harness.DSHarrisMichaelList, harness.DSSkipList, harness.DSABTree, harness.DSHashTable} {
		res := run(dsName)
		if ow := res.OpCounts[workload.Overwrite]; res.Reclaim.Retires < uint64(ow/2) {
			t.Fatalf("%s: %d retires for %d overwrites — replace-node strategy not retiring", dsName, res.Reclaim.Retires, ow)
		}
	}
	for _, dsName := range []string{harness.DSLazyList, harness.DSExternalBST} {
		res := run(dsName)
		if ow := res.OpCounts[workload.Overwrite]; res.Reclaim.Retires > uint64(ow/10) {
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
	for c := workload.Op(0); int(c) < workload.NumOps; c++ {
		if res.OpLat[c] != nil {
			t.Fatalf("%v histogram present without OpLatency", c)
		}
	}
}
