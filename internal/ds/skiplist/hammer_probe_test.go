package skiplist_test

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/ds/skiplist"
	"pop/internal/rng"
)

// TestHammerProbe chases tower-reclamation races (link-after-mark undo,
// retire handoff, scan resumption) under every policy with a tiny
// reclaim threshold, asserting zero unreclaimed nodes once quiescent.
// Enabled long via SKIPLIST_HAMMER=1; a few short rounds otherwise.
func TestHammerProbe(t *testing.T) {
	dur := 2 * time.Second
	if os.Getenv("SKIPLIST_HAMMER") != "" {
		dur = 90 * time.Second
	}
	start := time.Now()
	round := 0
	for time.Since(start) < dur {
		round++
		for _, p := range core.Policies() {
			hammerRound(t, p, round, 4, 4000)
			if t.Failed() {
				return
			}
		}
	}
}

// TestHammerProbeRaceSubset is the short hammer for `go test -race`
// over the policies the acceptance bar names; the full-policy probe
// above already runs race-clean, this pins the three must-pass ones
// even when the suite is filtered.
func TestHammerProbeRaceSubset(t *testing.T) {
	for round, p := range []core.Policy{core.EBR, core.HazardPtrPOP, core.EpochPOP} {
		hammerRound(t, p, round, 4, 3000)
		if t.Failed() {
			return
		}
	}
}

// hammerRound runs one domain's worth of mixed ops + scans and checks
// the leak and scan-shape invariants at the end.
func hammerRound(t *testing.T, p core.Policy, round, workers, ops int) {
	d := core.NewDomain(p, workers, &core.Options{ReclaimThreshold: 64, EpochFreq: 16})
	l := skiplist.New(d)
	var scanned atomic.Uint64
	var wg sync.WaitGroup
	threads := make([]*core.Thread, workers)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int, th *core.Thread) {
			defer wg.Done()
			r := rng.New(uint64(id)*23 + uint64(round)*7919 + uint64(p))
			var buf []int64
			for i := 0; i < ops; i++ {
				k := r.Intn(512)
				switch i % 5 {
				case 0, 1:
					l.PutIfAbsent(th, k, 0)
				case 2:
					l.Delete(th, k)
				case 3:
					l.Get(th, k)
				default:
					hi := k + r.Intn(96)
					buf = l.RangeCollect(th, k, hi, buf)
					for j := 1; j < len(buf); j++ {
						if buf[j-1] >= buf[j] || buf[j] < k || buf[j] > hi {
							t.Errorf("%v round %d: malformed scan [%d,%d]: %v", p, round, k, hi, buf)
							return
						}
					}
					scanned.Add(uint64(len(buf)))
				}
			}
		}(w, threads[w])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, th := range threads {
		th.Flush()
	}
	if p != core.NR {
		if u := d.Unreclaimed(); u != 0 {
			t.Errorf("%v round %d: %d unreclaimed nodes after quiescent flush", p, round, u)
		}
	}
	// Outstanding must equal exactly the keys still linked (towers with
	// retired-but-unfreed nodes would inflate it).
	if p != core.NR {
		if live, out := int64(l.Size(threads[0])), l.Outstanding(); live != out {
			t.Errorf("%v round %d: Outstanding = %d but Size = %d", p, round, out, live)
		}
	}
	if scanned.Load() == 0 {
		t.Errorf("%v round %d: hammer performed no successful scans", p, round)
	}
}
