package core_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/rng"
)

// TestHotPathDifferential plays a seeded tape of operations under every
// policy and compares what the reader saw with testdata/hot_tape.golden:
// one line per policy and mode holding every Stats field, a running hash
// of the nodes read in order (restarts included) and what is left
// unreclaimed once both threads have flushed. Whatever the golden says,
// no read may return a freed node. The tape runs once on a single thread
// ("alone") and once with a reclaimer on a second one whose every retire
// is a pass (ReclaimThreshold 1, "pinged"), so that under the POP
// policies and NBR a ping is pending at nearly every poll the reader
// makes. Regenerate (-update) only for an intended change to what a read
// does, and review the diff.
func TestHotPathDifferential(t *testing.T) {
	const path = "testdata/hot_tape.golden"
	want := map[string]string{} // "policy/mode" -> its golden line
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			key, _, _ := strings.Cut(line, " ")
			want[key] = line
		}
	}
	var got strings.Builder
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			for _, pinged := range []bool{false, true} {
				key := p.String() + "/alone"
				if pinged {
					key = p.String() + "/pinged"
				}
				res := runHotTape(t, p, pinged)
				line := fmt.Sprintf("%s %+v reads=%#x unreclaimed=%d", key, res.stats, res.reads, res.unreclaimed)
				fmt.Fprintln(&got, line)
				if !*update && line != want[key] {
					t.Errorf("tape:\n got  %s\n want %s", line, want[key])
				}
				if res.poisoned != 0 {
					t.Errorf("%s: %d reads of a freed node", key, res.poisoned)
				}
				if p != core.NR && res.unreclaimed != 0 {
					t.Errorf("%s: %d nodes unreclaimed after the flush", key, res.unreclaimed)
				}
				if !pinged {
					continue
				}
				switch p {
				case core.HazardPtrPOP, core.HazardEraPOP, core.EpochPOP:
					if res.stats.Publishes == 0 {
						t.Errorf("%s: no ping was ever answered, the publish path did not run", key)
					}
				case core.NBR:
					if res.stats.Restarts == 0 {
						t.Errorf("%s: no read was ever neutralized", key)
					}
				}
			}
		})
	}
	if *update {
		writeGolden(t, path, got.String())
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
// counter, is the same on every run. A Protect that returns ok=false
// (NBR's neutralization) folds a restart into the hash and drops every
// node the operation held, which is NBR's restart contract; the tape then
// goes on reading.
func runHotTape(t *testing.T, p core.Policy, pinged bool) tapeResult {
	const cells, ops = 8, 300
	const restart = 0 // hashed for a neutralized read; stamps start at 1
	e := newEnv(t, p, 2, &core.Options{ReclaimThreshold: 1, EpochFreq: 1})
	// Freed nodes are poisoned (caches are drawn from e.pool lazily, so
	// swapping it here is in time).
	e.pool = arena.NewPool[tnode](nil, func(n *tnode) { n.val = -1 })
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
				raw, ok := reader.Protect(slot, &cell[c])
				if !ok {
					res.reads = res.reads*31 + restart
					clear(held[:])
					return
				}
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
