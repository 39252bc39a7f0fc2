package core_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pop/internal/core"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestPassLedger pins what every policy's reclamation passes count, free
// and leave behind under one fixed script, against a table generated
// before the cold side was folded onto Thread.pass: one line per policy
// and peer state, every Stats field, the two trace-histogram counts,
// Unreclaimed before and after a closing flush, NR's leak and the
// orphanage's donated/adopted totals. A refactor of the pass skeleton,
// the sweep, the reservation walk or the ping wait that changes any of
// them fails here by name; regenerate (-update) only for an intended
// change, and review the diff.
//
// The script, in a 2-slot domain (ReclaimThreshold 8, BatchSize 4): the
// peer allocates a node and protects it; tenant A of the other slot
// retires that node and 23 of its own (24 = 3 × threshold, one
// operation each, so the threshold gate fires three times mid-
// operation), flushes and releases; tenants B and C each retire 5 and
// release (C's release carries the release debt past the threshold and
// owes the debt pass); tenant D flushes what they left. "quiescent":
// the peer ended its operation before A started. "parked": the peer
// stays inside it on its own goroutine, polling, until D has flushed.
func TestPassLedger(t *testing.T) {
	var got strings.Builder
	for _, p := range core.Policies() {
		for _, parked := range []bool{false, true} {
			mode := "quiescent"
			if parked {
				mode = "parked"
			}
			fmt.Fprintf(&got, "%s/%s %s\n", p, mode, passLedger(t, p, parked))
		}
	}
	const path = "testdata/pass_ledger.golden"
	if *update {
		writeGolden(t, path, got.String())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("ledger line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
}

// writeGolden replaces the golden file at path with got.
func writeGolden(t *testing.T, path, got string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}

// passLedger runs the script and returns the policy's ledger line.
func passLedger(t *testing.T, p core.Policy, parked bool) string {
	e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 8, BatchSize: 4})
	peer := e.d.RegisterThread()
	var cell core.Atomic
	ready, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		peer.StartOp()
		pin := e.alloc(peer, e.pool.NewCache(), -1)
		cell.Store(unsafe.Pointer(pin))
		for {
			// NBR neutralises a read phase: a restarted Protect is the
			// reservation it is allowed to hold.
			if _, ok := peer.Protect(0, &cell); ok {
				break
			}
		}
		if !parked {
			peer.EndOp()
		}
		close(ready)
		if !parked {
			return
		}
		for {
			select {
			case <-stop:
				peer.EndOp()
				return
			default:
				peer.Poll()
				runtime.Gosched()
			}
		}
	}()
	<-ready

	cache := e.pool.NewCache()
	retireOne := func(th *core.Thread, h *core.Header) {
		th.StartOp()
		if h == nil {
			h = &e.alloc(th, cache, 0).Header
		}
		th.Retire(h)
		th.EndOp()
	}
	a := e.d.RegisterThread()
	pin := (*tnode)(core.Mask(cell.Load()))
	cell.Store(nil)
	retireOne(a, &pin.Header)
	for i := 1; i < 24; i++ {
		retireOne(a, nil)
	}
	a.Flush()
	a.Release()
	for tenant := 0; tenant < 2; tenant++ {
		th := e.d.RegisterThread()
		for i := 0; i < 5; i++ {
			retireOne(th, nil)
		}
		th.Release()
	}
	d := e.d.RegisterThread()
	d.Flush()
	heldWhileParked := e.d.Unreclaimed()
	close(stop)
	<-done

	s, lc := e.d.Stats(), e.d.Lifecycle()
	passDur, pingAck := e.d.PassDurHist(), e.d.PingAckHist()
	passes, acks := passDur.Count(), pingAck.Count()
	if passes != s.Reclaims {
		t.Errorf("%s: PassDurHist has %d observations for %d passes", p, passes, s.Reclaims)
	}
	d.Flush()
	return fmt.Sprintf("%+v acks=%d unreclaimed=%d drained=%d donated=%d adopted=%d",
		s, acks, heldWhileParked, e.d.Unreclaimed(), lc.OrphansDonated, lc.OrphansAdopted)
}

// TestPassScratchReused pins the reclaim-time scratch (interval and
// counter snapshots, skip mask, pointer set) as allocated once: a
// steady-state pass — two quiescent peers, a list the pass can or cannot
// free — allocates nothing after the first.
func TestPassScratchReused(t *testing.T) {
	for _, p := range []core.Policy{core.IBR, core.NBR, core.HazardPtrPOP, core.HazardEraPOP} {
		t.Run(p.String(), func(t *testing.T) {
			e := newEnv(t, p, 3, &core.Options{ReclaimThreshold: 1 << 20})
			e.d.RegisterThread()
			e.d.RegisterThread()
			th := e.d.RegisterThread()
			cache := e.cacheFor(th) // the cache frees land in, so nodes recycle
			refill := func() {
				th.StartOp()
				for i := 0; i < 32; i++ {
					th.Retire(&e.alloc(th, cache, int64(i)).Header)
				}
				th.EndOp()
			}
			refill()
			th.Flush() // first pass: sizes the scratch
			if avg := testing.AllocsPerRun(20, func() {
				refill()
				th.Flush()
			}); avg != 0 {
				t.Fatalf("%v allocations per steady-state pass, want 0", avg)
			}
		})
	}
}
