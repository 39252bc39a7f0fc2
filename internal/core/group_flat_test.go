package core_test

import (
	"reflect"
	"testing"
	"unsafe"

	"pop/internal/core"
	"pop/internal/rng"
)

// flatView is the read side the tape is judged by; a Domain answers for
// itself, a DomainGroup folds its members.
type flatView interface {
	Stats() core.Stats
	Unreclaimed() int64
	Lifecycle() core.LifecycleStats
	Probes([]core.SlotProbe) []core.SlotProbe
}

// flatObs is one step's observation of a flatView.
type flatObs struct {
	Stats       core.Stats
	Unreclaimed int64
	Lifecycle   core.LifecycleStats
	Probes      []core.SlotProbe
}

// flatTape drives one seeded single-goroutine tape over e's domain —
// retire bursts that cross ReclaimThreshold, flushes, and release /
// re-lease of the working handle beside an idle bystander every pass
// has to scan — and observes view after every step. lease returns a
// thread and what gives it back.
func flatTape(t *testing.T, e *env, view flatView, threshold int, lease func() (*core.Thread, func())) []flatObs {
	t.Helper()
	r := rng.New(0x9e3779b97f4a7c15)
	_, releaseIdle := lease()
	th, release := lease()
	var cell core.Atomic
	var tape []flatObs
	observe := func() {
		tape = append(tape, flatObs{view.Stats(), view.Unreclaimed(), view.Lifecycle(), view.Probes(nil)})
	}
	for step := 0; step < 48; step++ {
		for n := 1 + r.Intn(int64(2*threshold)); n > 0; n-- {
			th.StartOp()
			node := e.alloc(th, e.cacheFor(th), n)
			cell.Store(unsafe.Pointer(node))
			th.Protect(int(r.Intn(core.MaxSlots)), &cell)
			cell.Store(nil)
			th.Retire(&node.Header)
			th.EndOp()
		}
		switch r.Intn(4) {
		case 0:
			th.Flush()
		case 1:
			release()
			th, release = lease()
		}
		observe()
	}
	th.Flush()
	release()
	releaseIdle()
	observe()
	return tape
}

// TestGroupOfOneIsFlatDomain is the property that lets a runner swap a
// lone Domain for a one-member DomainGroup without moving a number: the
// same tape, leased once through TryRegisterThread and once through
// Acquire().Member(0), reads identically at every step — Stats,
// Unreclaimed, Lifecycle and the slot probes (Member 0). SlotLeases
// means thread slots on one side and group slots on the other; they
// agree here because the tape leases its member thread with every group
// slot, which is also what the runners do.
func TestGroupOfOneIsFlatDomain(t *testing.T) {
	const slots, threshold = 3, 32
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			opts := &core.Options{ReclaimThreshold: threshold, EpochFreq: 4, BatchSize: 8}

			d := core.NewDomain(p, slots, opts)
			flat := flatTape(t, newEnvOn(d), d, threshold, func() (*core.Thread, func()) {
				th, err := d.TryRegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				return th, th.Release
			})

			g := core.NewDomainGroup(p, 1, slots, opts)
			grouped := flatTape(t, newEnvOn(g.Member(0)), g, threshold, func() (*core.Thread, func()) {
				h, err := g.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				return h.Member(0), func() { g.Release(h) }
			})

			for i := range flat {
				if !reflect.DeepEqual(flat[i], grouped[i]) {
					t.Fatalf("step %d diverged:\n  domain: %+v\n  group:  %+v", i, flat[i], grouped[i])
				}
			}
			last := flat[len(flat)-1]
			if last.Stats.Reclaims < 10 && p != core.NR {
				t.Fatalf("tape ran only %d passes: vacuous", last.Stats.Reclaims)
			}
			if last.Lifecycle.Releases < 5 || last.Lifecycle.Leased != 0 {
				t.Fatalf("tape's lease traffic: %+v", last.Lifecycle)
			}
		})
	}
}
