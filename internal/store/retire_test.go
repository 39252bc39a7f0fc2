package store

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/ds/abtree"
)

// replaceRun is what one run of replaceScript did, and the state it left.
type replaceRun struct {
	s        *Store
	g        *core.DomainGroup
	h        *core.GroupHandle
	retires  uint64 // core Retires during the script, after the prefill
	replaced int    // overwrites + deletes
	arena    int    // of those, replaced values that were arena slots
}

// replaceSizes walks a key's value across the inline boundary: inline →
// arena, arena → arena, arena → inline, inline → inline, and back.
var replaceSizes = []int{5, 40, 64, 7, 4, 9, 8, 6, 100}

// replaceScript prefills keys with arena values, then, on one handle,
// overwrites every key through replaceSizes (single puts and batches),
// deletes and re-inserts every seventh key, tries a PutIfAbsent on every
// fifth (which must lose: the key is present), deletes and re-inserts
// every key of the fullest shard (more keys than one leaf holds, so an
// ordered store excises leaves on the way down), and ends with an arena
// value in every key. inlineOnly maps every size to an inline one, so
// the two runs differ only in which replaced values own an arena slot.
func replaceScript(t *testing.T, p core.Policy, ordered, inlineOnly bool, keys int) replaceRun {
	t.Helper()
	g := newGroup(p, 2, 1)
	s, err := New(g, Config{Shards: 4, Ordered: ordered, ExpectedKeysPerShard: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := acquire(t, s)
	size := func(n int) int {
		if inlineOnly && n > InlineMaxLen {
			return InlineMaxLen
		}
		return n
	}
	key := func(k int) string { return fmt.Sprintf("rk-%03d", k) }
	isArena := make([]bool, keys)
	var vbuf []byte
	tag := uint32(0)
	put := func(k, n int) {
		tag++
		s.Put(h, key(k), valFor(vbuf, key(k), tag, size(n)))
	}
	for k := 0; k < keys; k++ {
		put(k, 16)
		isArena[k] = !inlineOnly
	}
	run := replaceRun{s: s, g: g, h: h}
	base := g.Stats().Retires
	replace := func(k, n int) {
		run.replaced++
		if isArena[k] {
			run.arena++
		}
		isArena[k] = size(n) > InlineMaxLen
	}
	var b Batch
	for r, n := range replaceSizes {
		if r%3 == 2 {
			// The same replacements through one batch.
			ks := make([]string, keys)
			vs := make([][]byte, keys)
			for k := range ks {
				tag++
				ks[k], vs[k] = key(k), valFor(nil, key(k), tag, size(n))
				replace(k, n)
			}
			s.PutBatch(h, ks, vs, &b)
			continue
		}
		for k := 0; k < keys; k++ {
			put(k, n)
			replace(k, n)
		}
	}
	for k := 0; k < keys; k += 7 {
		if !s.Delete(h, key(k)) {
			t.Fatalf("delete of %s missed", key(k))
		}
		run.replaced++
		if isArena[k] {
			run.arena++
		}
		tag++
		if !s.PutIfAbsent(h, key(k), valFor(vbuf, key(k), tag, size(24))) {
			t.Fatalf("PutIfAbsent of deleted %s lost", key(k))
		}
		isArena[k] = !inlineOnly
	}
	for k := 0; k < keys; k += 5 {
		tag++
		if s.PutIfAbsent(h, key(k), valFor(vbuf, key(k), tag, size(32))) {
			t.Fatalf("PutIfAbsent of present %s won", key(k))
		}
	}
	byShard := make([][]int, s.Shards())
	full := 0
	for k := 0; k < keys; k++ {
		si := s.ShardIndex(key(k))
		byShard[si] = append(byShard[si], k)
		if len(byShard[si]) > len(byShard[full]) {
			full = si
		}
	}
	if len(byShard[full]) <= abtree.B {
		t.Fatalf("fullest shard holds %d keys, no more than one leaf (%d)", len(byShard[full]), abtree.B)
	}
	for _, k := range byShard[full] {
		if !s.Delete(h, key(k)) {
			t.Fatalf("delete of %s missed", key(k))
		}
		run.replaced++
		if isArena[k] {
			run.arena++
		}
	}
	for _, k := range byShard[full] {
		tag++
		if !s.PutIfAbsent(h, key(k), valFor(vbuf, key(k), tag, size(48))) {
			t.Fatalf("PutIfAbsent of deleted %s lost", key(k))
		}
		isArena[k] = !inlineOnly
	}
	for k := 0; k < keys; k++ {
		put(k, 64)
		replace(k, 64)
	}
	run.retires = g.Stats().Retires - base
	if st := s.Stats(); int(st.Overwrites+st.Deletes) != run.replaced {
		t.Fatalf("Stats: %d overwrites + %d deletes, the script replaced %d values", st.Overwrites, st.Deletes, run.replaced)
	}
	return run
}

// TestStoreOneRetirePerReplacedValue pins what a replaced value costs
// the reclamation layer, on both layouts and all 11 policies, with
// overwrites that flip values between inline and arena encodings. A
// value frees with the node whose update dropped it, so it costs no
// retire of its own. On a hash-table store core Retires grows by exactly
// one per overwrite or delete. An ordered store's (a,b)-tree updates
// retire leaves (and parents, on a split or excision), whatever the
// values own: the script retires exactly as many as its inline-only
// twin. After a drain, every robust and epoch policy has freed every
// replaced value; under NR every replaced arena value is still held.
func TestStoreOneRetirePerReplacedValue(t *testing.T) {
	const keys = 48
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			hm := replaceScript(t, p, false, false, keys)
			if hm.retires != uint64(hm.replaced) {
				t.Errorf("hmht: %d retires for %d replaced values (%d arena), want one each", hm.retires, hm.replaced, hm.arena)
			}
			ab := replaceScript(t, p, true, false, keys)
			twin := replaceScript(t, p, true, true, keys)
			if ab.retires != twin.retires {
				t.Errorf("abt: %d retires, the inline-only twin %d; a replaced arena value (%d) must cost none", ab.retires, twin.retires, ab.arena)
			}
			for _, r := range []replaceRun{hm, ab} {
				r.h.Flush()
			}
			if p == core.NR {
				// Nothing is freed: the replaced values stay with the
				// nodes that dropped them.
				for name, r := range map[string]replaceRun{"hmht": hm, "abt": ab} {
					if vo := r.s.vals.Outstanding(); vo != int64(keys+r.arena) {
						t.Errorf("%s under NR: %d value slots outstanding, want %d live + %d replaced", name, vo, keys, r.arena)
					}
				}
				return
			}
			if u := hm.g.Unreclaimed() + ab.g.Unreclaimed(); u != 0 {
				t.Errorf("%d retires unreclaimed after a drain", u)
			}
			if out := hm.s.Outstanding(); out != 2*keys {
				t.Errorf("hmht: Outstanding = %d after a drain, want 2·keys = %d", out, 2*keys)
			}
			if vo := ab.s.vals.Outstanding(); vo != keys {
				t.Errorf("abt: %d value slots outstanding after a drain, want %d", vo, keys)
			}
		})
	}
}

// statsScript runs a fixed mix on h over keys prefix-0..n-1, which no
// other caller touches, and returns the Stats it must add: n inserts
// alternating inline and arena values, n overwrites (all arena), n hits
// and n misses, n/2 deletes, n/4 losing PutIfAbsents, one GetBatch of 8
// keys (4 deleted) and one PutBatch of 4 keys (2 present). It leaves
// n/2 arena values live: the odd keys.
func statsScript(s *Store, h *core.GroupHandle, prefix string, n int) Stats {
	key := func(k int) string { return fmt.Sprintf("%s-%d", prefix, k) }
	var vbuf []byte
	var want Stats
	for k := 0; k < n; k++ {
		size := 5
		if k%2 == 1 {
			size = 30
		}
		s.Put(h, key(k), valFor(vbuf, key(k), 1, size))
		want.Values.Allocs += uint64(k % 2)
	}
	for k := 0; k < n; k++ {
		s.Put(h, key(k), valFor(vbuf, key(k), 2, 40))
		want.Values.Allocs++
	}
	want.Puts, want.Overwrites = uint64(2*n), uint64(n)
	for k := 0; k < n; k++ {
		s.Get(h, key(k), vbuf)
		s.Get(h, key(n+k), vbuf)
	}
	want.Gets, want.GetMisses = uint64(2*n), uint64(n)
	for k := 0; k < n; k += 2 {
		s.Delete(h, key(k))
		want.Deletes++
	}
	for k := 1; k < n; k += 4 {
		s.PutIfAbsent(h, key(k), valFor(vbuf, key(k), 3, 50))
		want.Values.Allocs++ // copied, then freed unpublished
	}
	var b Batch
	s.GetBatch(h, []string{key(0), key(1), key(2), key(3), key(4), key(5), key(6), key(7)}, &b)
	want.Gets, want.GetMisses, want.Batches = want.Gets+8, want.GetMisses+4, 1
	s.PutBatch(h, []string{key(0), key(1), key(2), key(3)}, [][]byte{
		valFor(nil, key(0), 4, 6), valFor(nil, key(1), 4, 60), valFor(nil, key(2), 4, 6), valFor(nil, key(3), 4, 60),
	}, &b)
	want.Puts, want.Overwrites, want.PutBatches = want.Puts+4, want.Overwrites+2, 1
	want.Values.Allocs += 2
	return want
}

// addStats adds the fields statsScript predicts.
func addStats(a, b Stats) Stats {
	a.Gets += b.Gets
	a.GetMisses += b.GetMisses
	a.Puts += b.Puts
	a.Overwrites += b.Overwrites
	a.Deletes += b.Deletes
	a.Batches += b.Batches
	a.PutBatches += b.PutBatches
	a.Values.Allocs += b.Values.Allocs
	return a
}

// TestStoreStatsExact checks that Store.Stats, and the value arena's
// counts inside it, are exact sums of per-slot counts: after two handles
// run concurrently, and again after one slot is released and leased by
// a new handle, which must inherit that slot's counts (and its counters)
// rather than start a block of its own.
func TestStoreStatsExact(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			g := newGroup(core.EBR, 2, 2)
			s, err := New(g, Config{Shards: 4, Ordered: l.ordered, ExpectedKeysPerShard: 256})
			if err != nil {
				t.Fatal(err)
			}
			hs := []*core.GroupHandle{acquire(t, s), acquire(t, s)}
			wants := make([]Stats, 2)
			var wg sync.WaitGroup
			for i, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wants[i] = statsScript(s, h, fmt.Sprintf("w%d", i), 64)
				}()
			}
			wg.Wait()
			want := addStats(wants[0], wants[1])
			// Value frees follow the policy's passes; allocs are exact.
			check := func(when string) {
				t.Helper()
				got := s.Stats()
				got.Values = arena.Stats{Allocs: got.Values.Allocs}
				if got != want {
					t.Fatalf("%s: Stats\n got %+v\nwant %+v", when, got, want)
				}
			}
			check("two concurrent handles")

			slots := len(s.slots)
			s.Release(hs[1])
			hs[1] = acquire(t, s)
			want = addStats(want, statsScript(s, hs[1], "w2", 64))
			check("after a slot's release and re-lease")
			if len(s.slots) != slots {
				t.Fatalf("re-leased slot built new state: %d slot states, had %d", len(s.slots), slots)
			}
			if l.ordered {
				live := s.Size(hs[0])
				if n := s.Scan(hs[0], math.MinInt64+1, math.MaxInt64-1, func(int64, []byte) bool { return true }); n != live {
					t.Fatalf("Scan visited %d pairs, %d live", n, live)
				}
				want.Scans, want.ScanPairs = 1, uint64(live)
				check("after a scan")
			}
			for _, h := range hs {
				h.Flush()
			}
			const live = 3 * 64 / 2
			if st := s.Stats().Values; st.Frees != want.Values.Allocs-live || st.Outstanding != live || g.Unreclaimed() != 0 {
				t.Fatalf("after a drain: Values %+v, want %d allocs, %d live; %d unreclaimed", st, want.Values.Allocs, live, g.Unreclaimed())
			}
		})
	}
}
