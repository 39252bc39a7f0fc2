package core_test

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"pop/internal/core"
)

// TestGroupFacadeSemantics pins the lease facade: slot identity, LIFO
// reuse, incarnation counting, and the slot-table counts.
func TestGroupFacadeSemantics(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 2, 3, nil)
	if g.Members() != 2 || g.Member(1).MaxThreads() != 3 || g.Policy() != core.EBR {
		t.Fatalf("group shape: members=%d capacity=%d policy=%v", g.Members(), g.Member(1).MaxThreads(), g.Policy())
	}
	h1, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h3, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(); !errors.Is(err, core.ErrNoSlots) {
		t.Fatalf("4th acquire on a 3-slot group: %v, want ErrNoSlots", err)
	}
	if g.InUse() != 3 {
		t.Fatalf("InUse=%d, want 3", g.InUse())
	}
	// Fresh slots are handed out in order: h1, h2, h3 hold slots 0, 1, 2.
	if leases := g.Lifecycle().SlotLeases; !slices.Equal(leases, []uint64{1, 1, 1}) {
		t.Fatalf("SlotLeases = %v, want three distinct slots leased once", leases)
	}
	// LIFO reuse: the most recently released slot is handed out next,
	// with a bumped incarnation.
	inc := h2.Incarnation()
	g.Release(h2)
	h2b, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if leases := g.Lifecycle().SlotLeases; !slices.Equal(leases, []uint64{1, 2, 1}) {
		t.Fatalf("SlotLeases = %v after re-lease, want the just-freed slot 1 leased twice", leases)
	}
	if h2b.Incarnation() != inc+1 {
		t.Fatalf("incarnation = %d, want %d", h2b.Incarnation(), inc+1)
	}
	g.Release(h1)
	g.Release(h2b)
	g.Release(h3)
	if g.InUse() != 0 {
		t.Fatalf("InUse=%d after releasing everything", g.InUse())
	}
	var acquires uint64
	for _, n := range g.Lifecycle().SlotLeases {
		acquires += n
	}
	if acquires != 4 {
		t.Fatalf("SlotLeases sum = %d, want 4 acquires", acquires)
	}
}

// TestGroupLazyMemberLease pins the fan-out mechanism itself: a handle
// appears in a member's thread list only after first touching that
// member, and release returns every member thread it did lease.
func TestGroupLazyMemberLease(t *testing.T) {
	g := core.NewDomainGroup(core.EpochPOP, 4, 8, nil)
	h, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if h.MemberLeased(i) != nil {
			t.Fatalf("member %d leased before use", i)
		}
		if got := g.Member(i).Lifecycle().Leased; got != 0 {
			t.Fatalf("member %d shows %d leases before use", i, got)
		}
	}
	th := h.Member(2)
	if th == nil || h.MemberLeased(2) != th {
		t.Fatal("Member(2) did not lease and cache a thread")
	}
	if h.Member(2) != th {
		t.Fatal("second Member(2) re-leased instead of reusing")
	}
	for i := 0; i < 4; i++ {
		want := 0
		if i == 2 {
			want = 1
		}
		if got := g.Member(i).Lifecycle().Leased; got != want {
			t.Fatalf("member %d leased=%d, want %d", i, got, want)
		}
	}
	g.Release(h)
	if got := g.Member(2).Lifecycle().Leased; got != 0 {
		t.Fatalf("member 2 still shows %d leases after group release", got)
	}
}

// TestGroupFanoutReduction is the tentpole's measurable claim at the
// core layer: with T handles spread evenly over M members, a member
// reclaimer's per-pass thread scan covers T/M slots, not T. Runs the
// same retire/flush schedule against an ungrouped and a 4-member group
// and asserts the per-pass fan-out shrank by at least the group factor
// (with slack for the final-flush passes).
func TestGroupFanoutReduction(t *testing.T) {
	const (
		handles = 8
		members = 4
		retires = 2048
	)
	run := func(m int) core.ReclaimStats {
		g := core.NewDomainGroup(core.EBR, m, handles, &core.Options{ReclaimThreshold: 64})
		typs := make([]uint8, m)
		for i := 0; i < m; i++ {
			typs[i] = g.Member(i).RegisterType(func(*core.Thread, *core.Header) {})
		}
		// Register every handle's member thread up front so scan fan-out
		// reflects the full registered population even if the goroutines
		// end up serialized by the scheduler (released slots are LIFO-
		// reused, so sequential lease/release would keep the list at 1).
		hs := make([]*core.GroupHandle, handles)
		for i := range hs {
			h, err := g.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			h.Member(i % m)
			hs[i] = h
		}
		var wg sync.WaitGroup
		for i, h := range hs {
			wg.Add(1)
			go func(i int, h *core.GroupHandle) {
				defer wg.Done()
				mi := i % m
				th := h.Member(mi)
				for n := 0; n < retires; n++ {
					th.StartOp()
					hd := new(core.Header)
					th.OnAlloc(hd, typs[mi])
					th.Retire(hd)
					th.EndOp()
				}
				th.Flush()
			}(i, h)
		}
		wg.Wait()
		for _, h := range hs {
			g.Release(h)
		}
		return g.ReclaimStats()
	}
	flat := run(1)
	grouped := run(members)
	if flat.Passes == 0 || grouped.Passes == 0 {
		t.Fatalf("no reclamation passes ran: flat=%+v grouped=%+v", flat, grouped)
	}
	// Every handle is registered in the flat domain, so a pass there
	// scans ~handles slots; in the grouped run each member holds only
	// handles/members threads.
	factor := flat.ScannedPerPass / grouped.ScannedPerPass
	if factor < float64(members)*0.75 {
		t.Fatalf("fan-out reduction %.2fx < group factor %d (flat %.1f/pass, grouped %.1f/pass)",
			factor, members, flat.ScannedPerPass, grouped.ScannedPerPass)
	}
}

// TestGroupDrainAdoptsForeignOrphans: Drain must adopt orphans donated
// to members the draining handle never touched — the end-of-run
// guarantee harnesses rely on.
func TestGroupDrainAdoptsForeignOrphans(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 2, 2, &core.Options{ReclaimThreshold: 1 << 20})
	typ0 := g.Member(0).RegisterType(func(*core.Thread, *core.Header) {})

	// A departing tenant retires into member 0 only, then releases —
	// donating to member 0's orphanage.
	h, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	th := h.Member(0)
	th.StartOp()
	for i := 0; i < 16; i++ {
		hd := new(core.Header)
		th.OnAlloc(hd, typ0)
		th.Retire(hd)
	}
	th.EndOp()
	g.Release(h)
	if g.Unreclaimed() == 0 {
		t.Fatal("release donated nothing to the orphanage")
	}

	// A successor that has only ever touched member 1 must still drain
	// member 0's orphans.
	h2, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	_ = h2.Member(1)
	h2.Flush() // lazy flush: member 0 untouched, orphans must survive
	if g.Unreclaimed() == 0 {
		t.Fatal("Flush adopted orphans from an unleased member (laziness broken)")
	}
	h2.Drain()
	if u := g.Unreclaimed(); u != 0 {
		t.Fatalf("%d unreclaimed after Drain", u)
	}
	if lc := g.Lifecycle(); lc.OrphanNodes != 0 || lc.OrphansAdopted != lc.OrphansDonated {
		t.Fatalf("orphan ledger unbalanced after Drain: %+v", lc)
	}
	g.Release(h2)
}

// TestGroupDoubleReleasePanics: releasing a handle twice is a caller
// bug and must fail loudly.
func TestGroupDoubleReleasePanics(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 1, 1, nil)
	h, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	g.Release(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	g.Release(h)
}

// TestGroupConstructionPanics: invalid shapes fail at construction.
func TestGroupConstructionPanics(t *testing.T) {
	for _, tc := range []struct {
		name           string
		members, slots int
	}{
		{"zero members", 0, 4},
		{"non-power-of-two members", 3, 4},
		{"zero slots", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDomainGroup(%d members, %d slots) did not panic", tc.members, tc.slots)
				}
			}()
			core.NewDomainGroup(core.EBR, tc.members, tc.slots, nil)
		})
	}
}

// TestGroupLifecycleAllocs pins DomainGroup.Lifecycle to one allocation,
// the group-slot vector: it folds each member's counts without building
// the member's own SlotLeases, which the group would discard. A
// telemetry tick, a /metrics scrape and a server stats reply each read
// it.
func TestGroupLifecycleAllocs(t *testing.T) {
	g := core.NewDomainGroup(core.EBR, 4, 3, nil)
	var hs []*core.GroupHandle
	for range 2 {
		h, err := g.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < g.Members(); m++ {
			h.Member(m) // lease a thread in every member
		}
		hs = append(hs, h)
	}
	var lc core.LifecycleStats
	if n := testing.AllocsPerRun(100, func() { lc = g.Lifecycle() }); n != 1 {
		t.Fatalf("Lifecycle allocates %v times on a 4-member group, want 1", n)
	}
	if lc.Slots != 8 || lc.Leased != 8 || len(lc.SlotLeases) != 2 {
		t.Fatalf("Lifecycle = %+v, want 8 member slots leased and 2 group slots", lc)
	}
	for _, h := range hs {
		g.Release(h)
	}
}
