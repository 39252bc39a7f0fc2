package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/rng"
)

// TestHotPathDifferential runs every tagged policy twice — on the bodies
// written out in Thread.StartOp/EndOp/Protect, and on the reference
// bodies behind the algorithm interface (refalgo_test.go) — and requires
// the two to be indistinguishable: the same pass-ledger line, and over a
// seeded tape of operations the same Stats, the same nodes read in the
// same order, nothing left unreclaimed and no read of a freed node. The
// tape runs once on a single thread and once with a reclaimer on a second
// one whose every retire is a pass (ReclaimThreshold 1), so that under
// the POP policies a ping is pending at nearly every poll the reader
// makes.
func TestHotPathDifferential(t *testing.T) {
	for _, p := range core.Policies() {
		if !core.Tagged(p) {
			continue
		}
		t.Run(p.String(), func(t *testing.T) {
			for _, parked := range []bool{false, true} {
				hot, ref := passLedger(t, p, parked, false), passLedger(t, p, parked, true)
				if hot != ref {
					t.Errorf("pass ledger (parked=%v):\n switch    %s\n interface %s", parked, hot, ref)
				}
			}
			for _, pinged := range []bool{false, true} {
				hot, ref := runHotTape(t, p, pinged, false), runHotTape(t, p, pinged, true)
				if hot != ref {
					t.Errorf("tape (pinged=%v):\n switch    %+v\n interface %+v", pinged, hot, ref)
				}
				if hot.poisoned != 0 || ref.poisoned != 0 {
					t.Errorf("tape (pinged=%v): %d/%d reads of a freed node", pinged, hot.poisoned, ref.poisoned)
				}
				if p != core.NR && hot.unreclaimed != 0 {
					t.Errorf("tape (pinged=%v): %d nodes unreclaimed after the flush", pinged, hot.unreclaimed)
				}
				if pops := p == core.HazardPtrPOP || p == core.EpochPOP; pinged && pops && hot.stats.Publishes == 0 {
					t.Errorf("tape (pinged): no ping was ever answered, the publish path did not run")
				}
			}
		})
	}
}

type tapeResult struct {
	stats       core.Stats
	reads       uint64 // running hash of every node stamp a Protect returned
	poisoned    int    // held nodes whose stamp changed under the reservation
	unreclaimed int64  // after both threads flushed
}

// runHotTape plays the tape. The reader's operations are StartOp, one to
// six Protects of random cells into random slots, EndOp; before any of
// those steps the tape may call for a churn: one cell gets a fresh node
// and the old one is retired, which at threshold 1 is a full pass. With
// pinged=false the reader churns itself. With pinged=true a second thread
// does, in lockstep: the reader hands over the turn and then either sees
// the pass finish (it was not pinged) or sees its ping word set and takes
// its step with the ping pending — the pass cannot finish before that
// step's poll answers it — so the interleaving, and with it every
// counter, is the same on every run.
func runHotTape(t *testing.T, p core.Policy, pinged, ref bool) tapeResult {
	const cells, ops = 8, 300
	e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 1, EpochFreq: 1})
	// Freed nodes are poisoned (caches are drawn from e.pool lazily, so
	// swapping it here is in time).
	e.pool = arena.NewPool[tnode](nil, func(n *tnode) { n.val = -1 })
	if ref {
		core.UseReferenceBodies(e.d)
	}
	reader := e.d.RegisterThread()
	churner := reader
	if pinged {
		churner = e.d.RegisterThread()
	}

	var (
		cell  [cells]core.Atomic
		stamp int64
	)
	fresh := func(th *core.Thread) unsafe.Pointer {
		stamp++
		return unsafe.Pointer(e.alloc(th, e.cacheFor(th), stamp))
	}
	for i := range cell {
		cell[i].Store(fresh(reader))
	}
	// churn replaces cell c's node and retires the old one. The churner
	// thread brackets it in an operation of its own; the reader, churning
	// for itself, is already inside one or between two.
	churn := func(c int) {
		if pinged {
			churner.StartOp()
			defer churner.EndOp()
		}
		old := (*tnode)(cell[c].Load())
		cell[c].Store(fresh(churner))
		churner.Retire(&old.Header)
	}
	turn, done := make(chan int), make(chan struct{})
	if pinged {
		go func() {
			for c := range turn {
				churn(c)
				done <- struct{}{}
			}
			close(done)
		}()
	}

	var (
		res  tapeResult
		held [core.MaxSlots]struct {
			n     *tnode
			stamp int64
		}
	)
	check := func() {
		for _, h := range held {
			if h.n != nil && h.n.val != h.stamp {
				res.poisoned++
			}
		}
	}
	r := rng.New(uint64(p) + 1)
	// step takes one poll point of the reader, after the churn the tape
	// asks for (if any).
	step := func(do func()) {
		defer check()
		if r.Pct() >= 60 {
			do()
			return
		}
		c := int(r.Intn(cells))
		if !pinged {
			churn(c)
			do()
			return
		}
		turn <- c
		for {
			select {
			case <-done:
				do()
				return
			default:
			}
			if core.PingPending(reader) {
				do()
				<-done
				return
			}
			runtime.Gosched()
		}
	}
	for op := 0; op < ops; op++ {
		step(reader.StartOp)
		for hops := 1 + int(r.Intn(6)); hops > 0; hops-- {
			slot, c := int(r.Intn(core.MaxSlots)), int(r.Intn(cells))
			step(func() {
				raw, _ := reader.Protect(slot, &cell[c])
				n := (*tnode)(raw)
				held[slot].n, held[slot].stamp = n, n.val
				res.reads = res.reads*31 + uint64(n.val)
			})
		}
		step(func() {
			reader.EndOp()
			clear(held[:])
		})
	}
	if pinged {
		close(turn)
		<-done
		churner.Flush()
	}
	reader.Flush()
	res.stats, res.unreclaimed = e.d.Stats(), e.d.Unreclaimed()
	return res
}
