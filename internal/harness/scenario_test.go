package harness

import (
	"strings"
	"testing"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/workload"
)

// TestYCSBWorkloadsEndToEnd runs each of the six YCSB mixes through
// RunStore and checks the trial exercised the classes the mix names,
// with zero value-plane errors.
func TestYCSBWorkloadsEndToEnd(t *testing.T) {
	for _, name := range "ABCDEF" {
		w, err := workload.ParseYCSB(string(name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := RunStore(StoreConfig{
				Policy:   core.EBR,
				Threads:  2,
				Duration: 40 * time.Millisecond,
				Keys:     4096,
				Shards:   4,
				Mix:      w.Mix,
				Dist:     w.Dist,
				Seed:     uint64(w.Name[0]),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no ops completed")
			}
			iv := chaos.Invariants{Policy: core.EBR}
			for _, v := range iv.CheckValueErrors(res.ValueErrors) {
				t.Errorf("%s", v)
			}
			for _, v := range iv.CheckLeaked(res.LeakedAfter) {
				t.Errorf("%s", v)
			}
			// Each named class must actually have been drawn.
			m := w.Mix
			share := [workload.NumStoreOps]int{m.GetPct, m.PutPct, m.MGetPct, m.ScanPct, m.DeletePct, m.RMWPct, m.MPutPct}
			for c := workload.StoreOp(0); int(c) < workload.NumStoreOps; c++ {
				if share[c] > 0 && res.OpCounts[c] == 0 {
					t.Errorf("class %v has %d%% share but 0 ops", c, share[c])
				}
				if share[c] == 0 && res.OpCounts[c] != 0 {
					t.Errorf("class %v has no share but %d ops", c, res.OpCounts[c])
				}
			}
		})
	}
}

// TestYCSBMixSharesObserved: the trial-level frequency check for the
// two workloads with split mixes (A's 50/50 and F's rmw half).
func TestYCSBMixSharesObserved(t *testing.T) {
	f, err := workload.ParseYCSB("F")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStore(StoreConfig{
		Policy: core.EpochPOP, Threads: 2, Duration: 60 * time.Millisecond,
		Keys: 4096, Mix: f.Mix, Dist: f.Dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	rmwFrac := float64(res.OpCounts[workload.StoreRMW]) / float64(res.Ops)
	if rmwFrac < 0.4 || rmwFrac > 0.6 {
		t.Errorf("workload F rmw fraction %.3f, want ~0.5", rmwFrac)
	}
}

const harnessTrace = `# determinism fixture
put,alpha,32,0
put,beta,64,10
get,alpha,0,20
rmw,beta,48,30
scan,alpha,8,40
get,beta,0,50
delete,alpha,0,60
get,alpha,0,70
put,gamma,0,80
get,gamma,0,90
`

// traceConfig returns a fixed replay config over the fixture repeated
// enough to keep every worker busy.
func traceConfig(threads int) (StoreConfig, int) {
	ops, err := workload.ParseTrace(strings.NewReader(strings.Repeat(harnessTrace, 50)))
	if err != nil {
		panic(err)
	}
	return StoreConfig{
		Policy:    core.EBR,
		Threads:   threads,
		Keys:      1024,
		Shards:    2,
		Seed:      7,
		Trace:     ops,
		OpLatency: true,
	}, len(ops)
}

// TestTraceReplayDeterminism: same trace + seed ⇒ identical op counts
// across runs, and every op in the trace executes exactly once.
func TestTraceReplayDeterminism(t *testing.T) {
	for _, threads := range []int{1, 3} {
		cfg, total := traceConfig(threads)
		a, err := RunStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Ops != uint64(total) || b.Ops != uint64(total) {
			t.Fatalf("threads=%d: ops %d / %d, want exactly %d (trace drained once)", threads, a.Ops, b.Ops, total)
		}
		if a.OpCounts != b.OpCounts {
			t.Errorf("threads=%d: op counts diverged across identical replays:\n%v\n%v", threads, a.OpCounts, b.OpCounts)
		}
		if a.ValueErrors != 0 || b.ValueErrors != 0 {
			t.Errorf("threads=%d: value errors %d / %d", threads, a.ValueErrors, b.ValueErrors)
		}
		// Single-threaded replay is fully sequential: served-key counts
		// must match too (multi-worker interleaving may not).
		if threads == 1 && a.ServedKeys != b.ServedKeys {
			t.Errorf("sequential replays served %d vs %d keys", a.ServedKeys, b.ServedKeys)
		}
	}
}

// TestTraceReplayValidation: churn is incompatible with a trace.
func TestTraceReplayValidation(t *testing.T) {
	cfg, _ := traceConfig(1)
	cfg.Churn = workload.Churn{AfterOps: 100}
	if _, err := RunStore(cfg); err == nil {
		t.Error("trace+churn accepted")
	}
}

// TestTracePacedReplay: paced replay takes at least the trace's span.
func TestTracePacedReplay(t *testing.T) {
	ops, err := workload.ParseTrace(strings.NewReader(
		"put,a,16,0\nget,a,0,20000\nget,a,0,40000\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStore(StoreConfig{
		Policy: core.EBR, Threads: 1, Keys: 64, Trace: ops, TracePaced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 40*time.Millisecond {
		t.Errorf("paced replay of a 40ms trace finished in %v", res.Elapsed)
	}
}

// TestServeChaosTrial: the injector bundle against a live serving
// front — wire clients and in-process injectors share the store, and
// the run must still verify end to end (RunServe itself errors on
// leaked leases after shutdown).
func TestServeChaosTrial(t *testing.T) {
	res, err := RunServe(ServeConfig{
		Policy:   core.EpochPOP,
		Slots:    2,
		Conns:    4,
		Duration: 60 * time.Millisecond,
		Keys:     1024,
		Seed:     3,
		Chaos: chaos.Config{
			Stalls: 1, StallHold: 500 * time.Microsecond,
			GCPressure: true, GCEvery: 2 * time.Millisecond,
			Churners: 1, ChurnOps: 64,
			Hotspot: true, FlipEvery: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Error("no client ops completed under chaos")
	}
	if res.Chaos.Stalls == 0 || res.Chaos.GCCycles == 0 ||
		res.Chaos.Leases == 0 || res.Chaos.Flips == 0 {
		t.Errorf("idle injectors: %+v", res.Chaos)
	}
	iv := chaos.Invariants{Policy: core.EpochPOP}
	for _, v := range iv.CheckValueErrors(res.ValueErrors) {
		t.Errorf("invariant violated: %s", v)
	}
}

// TestStoreChaosTrial: RunStore with the injector bundle — every
// injector must report activity and every invariant must hold. An
// injector goroutine the scheduler did not run inside a short trial
// reports 0, so a trial with an idle injector is run again at twice the
// Duration, from 60 ms up to about 2 s; every trial's invariants are
// checked, and the last trial must show every injector active.
func TestStoreChaosTrial(t *testing.T) {
	const first, last = 60 * time.Millisecond, 1920 * time.Millisecond
	for _, p := range []core.Policy{core.EBR, core.HazardPtrPOP, core.NBR} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for d := first; ; d *= 2 {
				res, err := RunStore(StoreConfig{
					Policy:   p,
					Threads:  2,
					Duration: d,
					Keys:     2048,
					Shards:   4,
					Seed:     11,
					Chaos: chaos.Config{
						Stalls: 1, StallHold: 500 * time.Microsecond,
						GCPressure: true, GCEvery: 2 * time.Millisecond,
						Churners: 1, ChurnOps: 64,
						Hotspot: true, FlipEvery: time.Millisecond,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				checkStoreChaosInvariants(t, p, res)
				idle := res.Chaos.Stalls == 0 || res.Chaos.GCCycles == 0 ||
					res.Chaos.Leases == 0 || res.Chaos.Flips == 0
				if !idle {
					return
				}
				if d >= last {
					t.Fatalf("idle injectors after a %v trial: %+v", d, res.Chaos)
				}
				t.Logf("idle injectors after a %v trial, doubling: %+v", d, res.Chaos)
			}
		})
	}
}

// checkStoreChaosInvariants checks one TestStoreChaosTrial trial.
func checkStoreChaosInvariants(t *testing.T, p core.Policy, res StoreResult) {
	t.Helper()
	iv := chaos.Invariants{Policy: p}
	var vs []chaos.Violation
	vs = append(vs, iv.CheckValueErrors(res.ValueErrors)...)
	vs = append(vs, iv.CheckLeaked(res.LeakedAfter)...)
	vs = append(vs, iv.CheckCounters(res.Reclaim)...)
	// The trial's own 2 workers still hold their handles at snapshot
	// time; the injectors must have released theirs.
	vs = append(vs, iv.CheckLifecycle(res.Lifecycle, 2)...)
	for _, v := range vs {
		t.Errorf("invariant violated: %s", v)
	}
}
