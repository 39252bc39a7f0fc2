package core_test

import (
	"testing"

	"pop/internal/core"
)

// TestNodesAllocStamps: Alloc stamps the registered type and the
// current epoch as birth era, and under IBR and Crystalline the epoch
// still advances once per EpochFreq allocations.
func TestNodesAllocStamps(t *testing.T) {
	const freq = 4
	for _, p := range []core.Policy{core.EBR, core.IBR, core.Crystalline} {
		t.Run(p.String(), func(t *testing.T) {
			d := core.NewDomain(p, 1, &core.Options{EpochFreq: freq})
			d.RegisterType(func(*core.Thread, *core.Header) {}) // ids are not all 0
			nodes := core.NewNodes[tnode](d, nil)
			th := d.RegisterThread()
			e0 := d.Epoch()
			for i := 0; i < 3*freq; i++ {
				era := d.Epoch()
				n := nodes.Alloc(th)
				if n.Type != core.NodesType(nodes) || n.BirthEra != era || n.RetireEra != 0 {
					t.Fatalf("alloc %d: type %d birth %d retire %d, want type %d birth %d retire 0",
						i, n.Type, n.BirthEra, n.RetireEra, core.NodesType(nodes), era)
				}
			}
			want := e0
			if p == core.IBR || p == core.Crystalline {
				want += 3
			}
			if got := d.Epoch(); got != want {
				t.Fatalf("epoch after %d allocations = %d, want %d", 3*freq, got, want)
			}
		})
	}
}

// TestNodesFreeToReclaimer: a freed node runs onFree on the reclaiming
// thread and goes back to that thread's cache — not to the cache of
// the thread that allocated it — so the reclaimer's next Alloc returns
// it.
func TestNodesFreeToReclaimer(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, nil)
	var freedOn *core.Thread
	var freed *tnode
	nodes := core.NewNodes(d, func(th *core.Thread, n *tnode) { freedOn, freed = th, n })
	alloc, reclaim := d.RegisterThread(), d.RegisterThread()
	n := nodes.Alloc(alloc)
	reclaim.Retire(&n.Header)
	reclaim.Flush()
	if freed != n || freedOn != reclaim {
		t.Fatalf("onFree ran for %p on %v, want %p on the reclaimer", freed, freedOn, n)
	}
	if got := nodes.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after the free, want 0", got)
	}
	if got := nodes.Alloc(reclaim); got != n {
		t.Fatalf("reclaimer's next Alloc = %p, want the node it freed %p", got, n)
	}
	if got := nodes.Alloc(alloc); got == n {
		t.Fatal("the allocating thread's cache got the node back as well")
	}
}

// TestNodesUnused: a never-published node goes straight back to the
// thread's cache — no retire, no onFree — and is the next Alloc.
func TestNodesUnused(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	frees := 0
	nodes := core.NewNodes(d, func(*core.Thread, *tnode) { frees++ })
	th := d.RegisterThread()
	n := nodes.Alloc(th)
	nodes.Unused(th, n)
	if got := nodes.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after Unused, want 0", got)
	}
	if got := nodes.Alloc(th); got != n {
		t.Fatalf("next Alloc = %p, want the unused node %p", got, n)
	}
	th.Flush()
	if s := d.Stats(); frees != 0 || s.Retires != 0 || s.Frees != 0 {
		t.Fatalf("Unused retired or freed: onFree %d, retires %d, frees %d", frees, s.Retires, s.Frees)
	}
}

// TestNodesDetachedDrawStrandsNothing: a thread-less draw takes one slot
// from the shared list, so a structure's initial node plus a full slab's
// worth of Allocs fit in one slab. (Drawing it through a throwaway
// thread cache moved a whole batch there and stranded the rest.)
func TestNodesDetachedDrawStrandsNothing(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	nodes := core.NewNodes[tnode](d, nil)
	root := nodes.AllocDetached()
	if root.Type != core.NodesType(nodes) || root.BirthEra != 0 {
		t.Fatalf("detached node: type %d birth %d, want type %d birth 0", root.Type, root.BirthEra, core.NodesType(nodes))
	}
	th := d.RegisterThread()
	for i := 0; i < 4095; i++ {
		nodes.Alloc(th)
	}
	if got := core.NodesSlabs(nodes); got != 1 {
		t.Fatalf("root + 4095 allocations took %d slabs, want 1", got)
	}
	// The detached node is an ordinary pool node: it retires and frees.
	th.Retire(&root.Header)
	th.Flush()
	if got := nodes.Outstanding(); got != 4095 {
		t.Fatalf("outstanding = %d after freeing the root, want 4095", got)
	}
}

// TestLocalOfPerSlot: Of builds a slot's state once, and a slot that is
// released and leased again hands the same state to its next tenant.
func TestLocalOfPerSlot(t *testing.T) {
	d := core.NewDomain(core.EBR, 2, nil)
	builds := 0
	l := core.NewLocal(d, func(th *core.Thread) *int {
		builds++
		v := th.ID()
		return &v
	})
	a, b := d.RegisterThread(), d.RegisterThread()
	sa, sb := l.Of(a), l.Of(b)
	if sa == sb || *sa != a.ID() || *sb != b.ID() {
		t.Fatalf("two slots share or mislabel state: %d, %d", *sa, *sb)
	}
	if l.Of(a) != sa || l.Of(b) != sb || builds != 2 {
		t.Fatalf("state rebuilt: %d builds for 2 slots", builds)
	}
	a.Release()
	c := d.RegisterThread()
	if c.ID() != a.ID() {
		t.Fatalf("re-lease took slot %d, want the released slot %d", c.ID(), a.ID())
	}
	if l.Of(c) != sa || builds != 2 {
		t.Fatalf("the next tenant got new state (%d builds), want the released slot's", builds)
	}
}
