package abtree

import (
	"testing"

	"pop/internal/core"
)

// TestFreeValFreesEachDroppedValueOnce drives every leaf update that can
// retire a leaf — inserts that split the root leaf and a leaf under a
// real parent, overwrites, a losing PutIfAbsent, a copy-on-write that
// loses its validation, delete copy-on-writes and both kinds of excision
// (a parent rebuilt without the leaf, and a parent of two collapsed onto
// the sibling) — with a recording freeVal hook, under every policy. Each
// published value is unique, so after a drain the hook must have seen
// exactly the values an overwrite or delete dropped, each once: a split
// or insert that marked a drop frees a live value, and an update that
// forgot its mark leaks one. Under NR nothing is freed, so the hook must
// have seen none.
func TestFreeValFreesEachDroppedValueOnce(t *testing.T) {
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			freed := map[uint64]int{}
			d := core.NewDomain(p, 2, &core.Options{ReclaimThreshold: 16, EpochFreq: 4, BatchSize: 4})
			tr := New(d, func(_ *core.Thread, v uint64) { freed[v]++ })
			th := d.RegisterThread()

			live := map[int64]uint64{}
			dropped := map[uint64]bool{}
			next := uint64(1000)
			val := func() uint64 { next++; return next }
			put := func(k int64) {
				t.Helper()
				v := val()
				old, replaced := tr.Put(th, k, v)
				if prev, ok := live[k]; ok != replaced || (ok && old != prev) {
					t.Fatalf("Put(%d) = (%d, %v), want (%d, %v)", k, old, replaced, prev, ok)
				}
				if replaced {
					dropped[old] = true
				}
				live[k] = v
			}
			del := func(k int64) {
				t.Helper()
				old, ok := tr.Delete(th, k)
				if !ok || old != live[k] {
					t.Fatalf("Delete(%d) = (%d, %v), want (%d, true)", k, old, ok, live[k])
				}
				dropped[old] = true
				delete(live, k)
			}
			rootKids := func() int {
				r := (*node)(tr.entry.kids[0].Load())
				if r.leaf {
					return 0
				}
				return r.nkids()
			}

			// B+1 ascending inserts split the root leaf; 2B more split
			// leaves under the new root.
			for k := int64(0); k <= B; k++ {
				put(k)
			}
			if n := rootKids(); n != 2 {
				t.Fatalf("root has %d children after a root-leaf split, want 2", n)
			}
			for k := int64(B + 1); k <= 3*B; k++ {
				put(k)
			}
			if n := rootKids(); n < 3 {
				t.Fatalf("root has %d children, want a leaf split under it", n)
			}
			for k := int64(0); k <= 3*B; k += 2 {
				put(k) // overwrite
			}
			if tr.PutIfAbsent(th, 5, val()) {
				t.Fatal("PutIfAbsent on a present key won")
			}

			// A copy-on-write that loses its validation: th descends to
			// key 7's leaf, a second thread overwrites key 7, and th's
			// overwrite of the replaced leaf must fail and publish nothing.
			other := d.RegisterThread()
			th.StartOp()
			ps, ok := tr.search(th, 7)
			if !ok {
				t.Fatal("search neutralized with no reclaimer running")
			}
			i, found := ps.l.findKey(7)
			if !found {
				t.Fatal("key 7 not in its leaf")
			}
			v := val()
			old, replaced := tr.Put(other, 7, v)
			if !replaced || old != live[7] {
				t.Fatalf("Put(7) on the second thread = (%d, %v), want (%d, true)", old, replaced, live[7])
			}
			dropped[old] = true
			live[7] = v
			if tr.overwriteCoW(th, ps, 7, i, val()) {
				t.Fatal("copy-on-write of a replaced leaf passed its validation")
			}
			th.EndOp()
			other.Release()

			// Delete everything, lowest key first: each leaf shrinks by
			// copy-on-write to one key and is then excised, from a parent
			// rebuilt without it while the root has three or more
			// children, then from a parent of two that collapses onto its
			// sibling; the last leaf is the root's and empties by
			// copy-on-write.
			for k := int64(0); k <= 3*B; k++ {
				del(k)
			}
			if n := tr.Size(th); n != 0 {
				t.Fatalf("Size = %d after deleting every key", n)
			}
			th.Flush()

			if p == core.NR {
				if len(freed) != 0 {
					t.Fatalf("NR freed %d values", len(freed))
				}
				return
			}
			if u := d.Unreclaimed(); u != 0 {
				t.Fatalf("%d retires unreclaimed after a drain", u)
			}
			for v, n := range freed {
				if !dropped[v] {
					t.Errorf("freed %d, which no update dropped", v)
				} else if n != 1 {
					t.Errorf("freed %d %d times", v, n)
				}
			}
			for v := range dropped {
				if freed[v] == 0 {
					t.Errorf("dropped %d never freed", v)
				}
			}
		})
	}
}
