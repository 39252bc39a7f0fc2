package store

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pop/internal/core"
	"pop/internal/ds/abtree"
	"pop/internal/ds/hashtable"
	"pop/internal/rng"
	"pop/internal/workload"
)

// newGroup builds a domain group with tiny thresholds so reclamation
// paths run constantly during the tests (the dstest convention).
func newGroup(p core.Policy, members, slots int) *core.DomainGroup {
	return core.NewDomainGroup(p, members, slots, &core.Options{
		ReclaimThreshold: 32,
		EpochFreq:        8,
		BatchSize:        8,
	})
}

// acquire leases a handle or fails the test.
func acquire(t testing.TB, s *Store) *core.GroupHandle {
	t.Helper()
	h, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// valFor builds the canonical checksummed payload for key.
func valFor(buf []byte, key string, tag uint32, size int) []byte {
	return workload.AppendValueBytes(buf[:0], KeyHash(key), tag, size)
}

// layouts names both store layouts by the per-shard structure New builds
// for them.
var layouts = []struct {
	name    string
	ordered bool
}{{"abt", true}, {"hmht", false}}

func TestStoreSequential(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			g := newGroup(core.EpochPOP, 2, 1)
			s, err := New(g, Config{Shards: 4, Ordered: l.ordered})
			if err != nil {
				t.Fatal(err)
			}
			h := acquire(t, s)

			if _, ok := s.Get(h, "missing", nil); ok {
				t.Fatal("Get on empty store succeeded")
			}
			s.Put(h, "alpha", []byte("value-1"))
			if v, ok := s.Get(h, "alpha", nil); !ok || string(v) != "value-1" {
				t.Fatalf("Get(alpha) = %q, %v", v, ok)
			}
			s.Put(h, "alpha", []byte("value-2, longer than before"))
			if v, ok := s.Get(h, "alpha", nil); !ok || string(v) != "value-2, longer than before" {
				t.Fatalf("overwritten Get(alpha) = %q, %v", v, ok)
			}
			if s.PutIfAbsent(h, "alpha", []byte("loser")) {
				t.Fatal("PutIfAbsent overwrote a present key")
			}
			if !s.PutIfAbsent(h, "beta", []byte("beta-value")) {
				t.Fatal("PutIfAbsent failed on an absent key")
			}
			if _, ok := s.Get(h, "beta", nil); !ok {
				t.Fatal("Get(beta) missed a present key")
			}
			if _, ok := s.Get(h, "gamma", nil); ok {
				t.Fatal("Get(gamma) hit an absent key")
			}
			if got := s.Size(h); got != 2 {
				t.Fatalf("Size = %d, want 2", got)
			}
			if !s.Delete(h, "alpha") || s.Delete(h, "alpha") {
				t.Fatal("Delete semantics wrong")
			}
			if _, ok := s.Get(h, "alpha", nil); ok {
				t.Fatal("deleted key still served")
			}
			st := s.Stats()
			if st.Puts != 3 || st.Overwrites != 1 || st.Deletes != 1 {
				t.Fatalf("stats: %+v", st)
			}
			h.Flush()
			if p := g.Policy(); p != core.NR {
				if u := g.Unreclaimed(); u != 0 {
					t.Fatalf("%d unreclaimed after flush", u)
				}
			}
			// One live key (beta): exactly one value slot outstanding.
			if vo := s.vals.Outstanding(); vo != 1 {
				t.Fatalf("value slots outstanding = %d, want 1", vo)
			}
		})
	}
}

// TestStoreMemberMapping pins the shard→member mapping and the lazy
// member leasing the fan-out argument rests on: an operation touching
// one shard leases exactly that shard's member thread and no other.
func TestStoreMemberMapping(t *testing.T) {
	g := newGroup(core.EpochPOP, 4, 2)
	s, err := New(g, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Group(); got != g {
		t.Fatal("Group() did not return the constructing group")
	}
	// 8 shards over 4 members: contiguous blocks of 2.
	for si := 0; si < 8; si++ {
		if got, want := s.MemberIndex(si), si/2; got != want {
			t.Fatalf("MemberIndex(%d) = %d, want %d", si, got, want)
		}
	}
	h := acquire(t, s)
	for i := range make([]struct{}, 4) {
		if h.MemberLeased(i) != nil {
			t.Fatalf("member %d leased before any operation", i)
		}
	}
	// One Put touches exactly one shard, hence one member.
	key := "member-mapping-probe"
	si := s.ShardIndex(key)
	s.Put(h, key, []byte("v"))
	for i := range make([]struct{}, 4) {
		if want := i == s.MemberIndex(si); (h.MemberLeased(i) != nil) != want {
			t.Fatalf("after touching shard %d, member %d leased=%v want %v",
				si, i, h.MemberLeased(i) != nil, want)
		}
	}
	h.Flush()
	s.Release(h)
}

// TestStoreGetAfterPut is the linearizable get-after-put check per
// shard: each thread owns a private slice of the key space and every
// Get of an owned key must return exactly the bytes of the thread's
// latest Put, while all other threads churn their own stripes through
// the same shards. Runs under every policy on a grouped store (8
// shards, 2 member domains).
func TestStoreGetAfterPut(t *testing.T) {
	const (
		threads = 4
		stripe  = 64
		ops     = 1500
	)
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			g := newGroup(p, 2, threads)
			s, err := New(g, Config{Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			hs := make([]*core.GroupHandle, threads)
			for i := range hs {
				hs[i] = acquire(t, s)
			}
			errs := make(chan error, threads)
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := hs[id]
					r := rng.New(uint64(id)*31 + uint64(p) + 1)
					ref := make(map[string][]byte, stripe)
					var vbuf, gbuf []byte
					for n := 0; n < ops; n++ {
						key := workload.KeyString(int64(id)*stripe + r.Intn(stripe))
						switch r.Intn(10) {
						case 0:
							s.Delete(h, key)
							delete(ref, key)
						case 1, 2, 3, 4:
							size := 16 + int(r.Intn(240))
							vbuf = valFor(vbuf, key, uint32(n), size)
							s.Put(h, key, vbuf)
							ref[key] = append([]byte(nil), vbuf...)
						default:
							got, ok := s.Get(h, key, gbuf)
							want, wok := ref[key]
							if ok != wok || (ok && !bytes.Equal(got, want)) {
								errs <- fmt.Errorf("thread %d op %d: Get(%s) = (%d bytes, %v), want (%d bytes, %v)",
									id, n, key, len(got), ok, len(want), wok)
								return
							}
							gbuf = got[:0]
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, h := range hs {
				h.Flush()
			}
			if p != core.NR {
				if u := g.Unreclaimed(); u != 0 {
					t.Fatalf("%d unreclaimed after quiescent flush", u)
				}
			}
		})
	}
}

// TestStoreBatchVsLoop checks GetBatch's positional equivalence with
// per-key Gets: exactly on a quiescent store (hits, misses, duplicates,
// cross-shard batches), and against private references under full
// concurrency. The store is fully grouped (one member per shard), so
// every batch crosses member domains.
func TestStoreBatchVsLoop(t *testing.T) {
	const (
		threads = 4
		keys    = 512
		batch   = 64
	)
	for _, p := range []core.Policy{core.EBR, core.HP, core.NBR, core.EpochPOP, core.HazardEraPOP} {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%v/%s", p, l.name), func(t *testing.T) {
				g := newGroup(p, 8, threads)
				s, err := New(g, Config{Shards: 8, Ordered: l.ordered})
				if err != nil {
					t.Fatal(err)
				}
				hs := make([]*core.GroupHandle, threads)
				for i := range hs {
					hs[i] = acquire(t, s)
				}
				h := hs[0]
				var vbuf []byte
				for i := int64(0); i < keys; i += 2 {
					key := workload.KeyString(i)
					vbuf = valFor(vbuf, key, uint32(i), 16+int(i)%200)
					s.Put(h, key, vbuf)
				}

				// Quiescent equivalence.
				r := rng.New(uint64(p) * 17)
				kbuf := make([]string, batch)
				var b Batch
				for round := 0; round < 10; round++ {
					for i := range kbuf {
						kbuf[i] = workload.KeyString(r.Intn(keys))
					}
					kbuf[3] = kbuf[1] // duplicates answered independently
					s.GetBatch(h, kbuf, &b)
					for i, key := range kbuf {
						want, wok := s.Get(h, key, nil)
						if b.OK[i] != wok || !bytes.Equal(b.Vals[i], want) {
							t.Fatalf("round %d slot %d key %s: batch (%d bytes, %v) vs get (%d bytes, %v)",
								round, i, key, len(b.Vals[i]), b.OK[i], len(want), wok)
						}
					}
				}

				// Concurrent: each thread batch-reads its own stripe.
				errs := make(chan error, threads)
				var wg sync.WaitGroup
				for w := 0; w < threads; w++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						h := hs[id]
						base := int64(keys + id*256)
						ref := make(map[string][]byte)
						r := rng.New(uint64(id)*977 + uint64(p))
						kb := make([]string, batch)
						var vb []byte
						var bb Batch
						for n := 0; n < 30; n++ {
							for j := 0; j < 16; j++ {
								key := workload.KeyString(base + r.Intn(256))
								if r.Intn(5) == 0 {
									s.Delete(h, key)
									delete(ref, key)
								} else {
									vb = valFor(vb, key, uint32(n*16+j), 16+int(r.Intn(100)))
									s.Put(h, key, vb)
									ref[key] = append([]byte(nil), vb...)
								}
							}
							for j := range kb {
								kb[j] = workload.KeyString(base + r.Intn(256))
							}
							s.GetBatch(h, kb, &bb)
							for j, key := range kb {
								want, wok := ref[key]
								if bb.OK[j] != wok || (wok && !bytes.Equal(bb.Vals[j], want)) {
									errs <- fmt.Errorf("thread %d round %d: batch slot %d key %s mismatch", id, n, j, key)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				for _, h := range hs {
					h.Flush()
				}
			})
		}
	}
}

// TestStoreBatchValsAppendSafe: a read-modify-write may append to one
// GetBatch value before its PutBatch; that must not overwrite the
// values after it in the batch's buffer.
func TestStoreBatchValsAppendSafe(t *testing.T) {
	s, err := New(newGroup(core.EBR, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := acquire(t, s)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		s.Put(h, k, []byte(k+"-payload-longer-than-inline"))
	}
	var b Batch
	for round := 0; round < 2; round++ { // the second round reuses a grown buffer
		s.GetBatch(h, keys, &b)
		b.Vals[0] = append(b.Vals[0], "-appended"...)
		for i, k := range keys[1:] {
			if got, want := string(b.Vals[i+1]), k+"-payload-longer-than-inline"; got != want {
				t.Fatalf("round %d: after an append to Vals[0], Vals[%d] = %q, want %q", round, i+1, got, want)
			}
		}
	}
}

// TestStorePutBatchVsLoop checks PutBatch's equivalence with per-key
// Puts: positional replaced-flags, values readable afterwards, replaced
// values retired (value-slot accounting stays exact), on both layouts,
// and Batch reuse across a GetBatch → modify → PutBatch
// read-modify-write cycle.
func TestStorePutBatchVsLoop(t *testing.T) {
	const (
		keys  = 256
		batch = 64
	)
	for _, p := range []core.Policy{core.EBR, core.HP, core.EpochPOP} {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%v/%s", p, l.name), func(t *testing.T) {
				g := newGroup(p, 4, 2)
				s, err := New(g, Config{Shards: 8, Ordered: l.ordered})
				if err != nil {
					t.Fatal(err)
				}
				h := acquire(t, s)
				r := rng.New(uint64(p)*29 + 7)
				ref := make(map[string][]byte, keys)
				var vbuf []byte
				// Seed half the space so batches mix inserts and overwrites.
				for i := int64(0); i < keys; i += 2 {
					key := workload.KeyString(i)
					vbuf = valFor(vbuf, key, uint32(i), 24)
					s.Put(h, key, vbuf)
					ref[key] = append([]byte(nil), vbuf...)
				}
				kb := make([]string, batch)
				vb := make([][]byte, batch)
				var b Batch
				for round := 0; round < 8; round++ {
					for i := range kb {
						kb[i] = workload.KeyString(r.Intn(keys))
						vb[i] = valFor(nil, kb[i], uint32(round*batch+i), 16+int(r.Intn(120)))
					}
					kb[5] = kb[2] // duplicate keys upsert in slot order
					vb[5] = valFor(nil, kb[5], uint32(round*batch)+0xbeef, 40)
					wantOK := make([]bool, batch)
					present := make(map[string]bool, batch)
					for i, key := range kb {
						_, had := ref[key]
						wantOK[i] = had || present[key]
						present[key] = true
					}
					s.PutBatch(h, kb, vb, &b)
					for i, key := range kb {
						if b.OK[i] != wantOK[i] {
							t.Fatalf("round %d slot %d key %s: replaced=%v want %v",
								round, i, key, b.OK[i], wantOK[i])
						}
						// Slot order is upsert order (the in-bucket sort is
						// stable), so a duplicate key's later slot wins.
						ref[key] = append([]byte(nil), vb[i]...)
					}
					for key, want := range ref {
						got, ok := s.Get(h, key, nil)
						if !ok || !bytes.Equal(got, want) {
							t.Fatalf("round %d: Get(%s) = (%d bytes, %v), want %d bytes",
								round, key, len(got), ok, len(want))
						}
					}
				}

				// Read-modify-write reusing one Batch: fetch a batch of
				// known-present keys, rewrite every hit with a derived
				// payload, put the batch back.
				live := make([]string, 0, len(ref))
				for key := range ref {
					live = append(live, key)
				}
				for i := range kb {
					kb[i] = live[int(r.Intn(int64(len(live))))]
				}
				s.GetBatch(h, kb, &b)
				for i := range kb {
					if !b.OK[i] {
						t.Fatalf("rmw key %s missing despite being in the reference map", kb[i])
					}
					vb[i] = valFor(vb[i][:0], kb[i], 0xc0de, len(b.Vals[i]))
				}
				s.PutBatch(h, kb, vb, &b)
				for i := range kb {
					if !b.OK[i] {
						t.Fatalf("rmw PutBatch slot %d did not replace", i)
					}
				}

				h.Flush()
				if p != core.NR {
					if u := g.Unreclaimed(); u != 0 {
						t.Fatalf("%d unreclaimed after quiescent flush", u)
					}
					// Every live key holds exactly one value slot: all replaced
					// slots must have been retired and freed.
					if vo, live := s.vals.Outstanding(), int64(s.Size(h)); vo != live {
						t.Fatalf("value slots outstanding = %d, live keys = %d", vo, live)
					}
				}
				if st := s.Stats(); st.PutBatches != 9 {
					t.Fatalf("PutBatches = %d, want 9", st.PutBatches)
				}
			})
		}
	}
}

// TestStoreOverwriteStorm is the acceptance storm: all threads hammer a
// small hot key set with overwrites while serving gets, batches, batch
// puts and scans. Every value the store returns, on every path, must be
// internally consistent — the checksummed payload of some put to
// exactly that key. A torn read, a stale slot served as live, or a
// cross-key value fails the checksum. Runs under every policy on a
// fully grouped store (one member domain per shard), on both layouts;
// the hash table serves a get where the (a,b)-tree scans.
func TestStoreOverwriteStorm(t *testing.T) {
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			for _, l := range layouts {
				t.Run(l.name, func(t *testing.T) { overwriteStorm(t, p, l.ordered) })
			}
		})
	}
}

func overwriteStorm(t *testing.T, p core.Policy, ordered bool) {
	const (
		threads = 4
		hotKeys = 32
		ops     = 1200
	)
	g := newGroup(p, 4, threads)
	s, err := New(g, Config{Shards: 4, Ordered: ordered})
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*core.GroupHandle, threads)
	for i := range hs {
		hs[i] = acquire(t, s)
	}
	keyTab := make([]string, hotKeys)
	hkTab := make([]int64, hotKeys)
	for i := range keyTab {
		keyTab[i] = workload.KeyString(int64(i))
		hkTab[i] = KeyHash(keyTab[i])
	}
	var vbuf []byte
	for i, key := range keyTab {
		vbuf = valFor(vbuf, key, uint32(i), 32)
		s.Put(hs[0], key, vbuf)
	}
	var badValues atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := hs[id]
			r := rng.New(uint64(id)*7919 + uint64(p) + 3)
			var vb, gb []byte
			kb := make([]string, 8)
			pv := make([][]byte, 8)
			var bb Batch
			tag := uint32(id) << 24
			for n := 0; n < ops; n++ {
				i := int(r.Intn(hotKeys))
				op := r.Intn(8)
				if op == 4 && !s.Ordered() {
					op = 7 // a single serve in place of the scan
				}
				switch op {
				case 0, 1, 2: // overwrite: a retirement per hit
					tag++
					vb = valFor(vb, keyTab[i], tag, 16+int(r.Intn(1000)))
					s.Put(h, keyTab[i], vb)
				case 3: // batched serve
					for j := range kb {
						kb[j] = keyTab[int(r.Intn(hotKeys))]
					}
					s.GetBatch(h, kb, &bb)
					for j := range kb {
						if bb.OK[j] && !workload.ValueBytesValid(KeyHash(kb[j]), bb.Vals[j]) {
							badValues.Add(1)
						}
					}
				case 4: // scan serve (ordered store)
					s.Scan(h, hkTab[i]-1000, hkTab[i]+1000, func(hk int64, v []byte) bool {
						if !workload.ValueBytesValid(hk, v) {
							badValues.Add(1)
						}
						return true
					})
				case 5: // batched overwrite: 8 retirements per hit set
					for j := range kb {
						tag++
						kb[j] = keyTab[int(r.Intn(hotKeys))]
						pv[j] = valFor(pv[j][:0], kb[j], tag, 16+int(r.Intn(400)))
					}
					s.PutBatch(h, kb, pv, &bb)
				default: // single serve
					var ok bool
					gb, ok = s.Get(h, keyTab[i], gb)
					if ok && !workload.ValueBytesValid(hkTab[i], gb) {
						badValues.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := badValues.Load(); n != 0 {
		t.Fatalf("%d checksum-invalid values served under %v", n, p)
	}
	for _, h := range hs {
		h.Flush()
	}
	st := s.Stats()
	if st.Overwrites == 0 {
		t.Fatal("storm produced no overwrites")
	}
	if st.PutBatches == 0 {
		t.Fatal("storm produced no batched puts")
	}
	if p != core.NR {
		if u := g.Unreclaimed(); u != 0 {
			t.Fatalf("%d unreclaimed after quiescent flush", u)
		}
		// Every live key holds exactly one value slot; everything
		// retired must have been freed by the flush.
		if vo, live := s.vals.Outstanding(), int64(s.Size(hs[0])); vo != live {
			t.Fatalf("value slots outstanding = %d, live keys = %d", vo, live)
		}
	}
}

// TestStoreScan checks the value-returning scan on the ordered store:
// on a quiescent store a full-space scan yields every pair
// exactly once with exact payload bytes, pairs arrive ascending within
// each shard, windows restrict correctly, and early termination stops
// the walk.
func TestStoreScan(t *testing.T) {
	const keys = 300
	t.Run("abt", func(t *testing.T) {
		g := newGroup(core.EBR, 2, 1)
		s, err := New(g, Config{Shards: 4, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		h := acquire(t, s)
		want := make(map[int64][]byte, keys)
		var vbuf []byte
		for i := int64(0); i < keys; i++ {
			key := workload.KeyString(i)
			vbuf = valFor(vbuf, key, uint32(i), 16+int(i)%64)
			s.Put(h, key, vbuf)
			want[KeyHash(key)] = append([]byte(nil), vbuf...)
		}
		got := make(map[int64][]byte, keys)
		// Scan order is shard-major: within one shard keys ascend, and a
		// drop marks a shard boundary — at most Shards()-1 drops total.
		drops := 0
		last := int64(math.MinInt64)
		n := s.Scan(h, -1<<62, 1<<62, func(hk int64, v []byte) bool {
			if _, dup := got[hk]; dup {
				t.Fatalf("pair %d scanned twice", hk)
			}
			if hk < last {
				drops++
			}
			last = hk
			got[hk] = append([]byte(nil), v...)
			return true
		})
		if drops > s.Shards()-1 {
			t.Fatalf("%d order drops, want < shard count %d", drops, s.Shards())
		}
		// The window covers most but not all of the hash space, so
		// compare against the reference filtered the same way.
		expect := 0
		for hk, wv := range want {
			if hk < -1<<62 || hk > 1<<62 {
				continue
			}
			expect++
			gv, ok := got[hk]
			if !ok || !bytes.Equal(gv, wv) {
				t.Fatalf("pair %d: got %d bytes (present=%v), want %d", hk, len(gv), ok, len(wv))
			}
		}
		if n != expect || len(got) != expect {
			t.Fatalf("scan visited %d pairs (map %d), want %d", n, len(got), expect)
		}
		// Early stop.
		count := 0
		s.Scan(h, -1<<62, 1<<62, func(int64, []byte) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Fatalf("early-stopped scan visited %d pairs, want 5", count)
		}
		h.Flush()
	})
}

// opSeq sums the OpSeq words of every slot in s's group, read through
// its probes. Every protected operation bumps its thread's word by 2,
// so in a one-slot group the delta across a call counts the call's
// operations.
func opSeq(s *Store) uint64 {
	var sum uint64
	for _, p := range s.Group().Probes(nil) {
		sum += p.OpSeq
	}
	return sum
}

// TestStoreScanChunks pins Scan's chunking: a full scan of one shard
// holding 1000 keys is one protected operation per scanChunk pairs, so
// a large scan never becomes one enormous operation.
func TestStoreScanChunks(t *testing.T) {
	const keys = 1000
	t.Run("abt", func(t *testing.T) {
		g := newGroup(core.EBR, 1, 1)
		s, err := New(g, Config{Shards: 1, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		h := acquire(t, s)
		var vbuf []byte
		for i := int64(0); i < keys; i++ {
			key := workload.KeyString(i)
			vbuf = valFor(vbuf, key, uint32(i), 32)
			s.Put(h, key, vbuf)
		}
		before := opSeq(s)
		n := s.Scan(h, math.MinInt64+1, math.MaxInt64-1, func(int64, []byte) bool { return true })
		if n != keys {
			t.Fatalf("scan visited %d pairs, want %d", n, keys)
		}
		chunks := (keys + scanChunk - 1) / scanChunk
		if d := opSeq(s) - before; d != uint64(2*chunks) {
			t.Fatalf("scan of %d pairs moved OpSeq by %d, want %d (%d operations of <= %d pairs)",
				keys, d, 2*chunks, chunks, scanChunk)
		}
		if st := s.Stats(); st.StaleReads != 0 {
			t.Fatalf("%d stale reads in a single-threaded scan", st.StaleReads)
		}
		h.Flush()
	})
}

// TestStoreBatchOneOpPerMember pins the batches' bracketing: on both
// layouts, with one member domain and with four, GetBatch and PutBatch
// run each member's keys in one protected operation (ds.InOp), so a
// call moves the summed OpSeq by exactly 2 per member it touches. A
// batch whose keys all route to one member leases no thread in any
// other. Values are inline and nothing reclaims, so no stale-read retry
// adds an operation.
func TestStoreBatchOneOpPerMember(t *testing.T) {
	const n = 64
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			for _, members := range []int{1, 4} {
				t.Run(fmt.Sprintf("groups=%d", members), func(t *testing.T) {
					g := core.NewDomainGroup(core.EpochPOP, members, 2, &core.Options{ReclaimThreshold: 1 << 20})
					s, err := New(g, Config{Shards: 8, Ordered: l.ordered})
					if err != nil {
						t.Fatal(err)
					}
					memberOf := func(key string) int { return s.MemberIndex(s.ShardIndex(key)) }
					// calls runs PutBatch (insert, then overwrite) and GetBatch
					// of keys on h, each moving OpSeq by 2 per member touched,
					// and checks the values read back.
					calls := func(h *core.GroupHandle, keys []string) {
						t.Helper()
						vals := make([][]byte, len(keys))
						touched := make(map[int]bool)
						for i, key := range keys {
							vals[i] = []byte(fmt.Sprint(i)) // inline: <= InlineMaxLen
							touched[memberOf(key)] = true
						}
						want := uint64(2 * len(touched))
						var b Batch
						for _, call := range []struct {
							name string
							run  func()
						}{
							{"PutBatch (insert)", func() { s.PutBatch(h, keys, vals, &b) }},
							{"PutBatch (overwrite)", func() { s.PutBatch(h, keys, vals, &b) }},
							{"GetBatch", func() { s.GetBatch(h, keys, &b) }},
						} {
							before := opSeq(s)
							call.run()
							if d := opSeq(s) - before; d != want {
								t.Fatalf("%s of %d keys over %d members moved OpSeq by %d, want %d", call.name, len(keys), len(touched), d, want)
							}
						}
						for i, ok := range b.OK {
							if !ok || !bytes.Equal(b.Vals[i], vals[i]) {
								t.Fatalf("GetBatch[%d] = %q, %v, want %q", i, b.Vals[i], ok, vals[i])
							}
						}
					}

					h := acquire(t, s)
					keys := make([]string, n)
					for i := range keys {
						keys[i] = workload.KeyString(int64(i))
					}
					calls(h, keys)

					// A batch of one member's keys, on a handle that has leased
					// nothing yet, leases that member's thread only.
					target := members - 1
					var mine []string
					for i := int64(n); len(mine) < n/4; i++ {
						if key := workload.KeyString(i); memberOf(key) == target {
							mine = append(mine, key)
						}
					}
					h2 := acquire(t, s)
					calls(h2, mine)
					for m := 0; m < members; m++ {
						if leased := h2.MemberLeased(m) != nil; leased != (m == target) {
							t.Fatalf("after a batch routed to member %d, member %d leased = %v", target, m, leased)
						}
					}
					if st := s.Stats(); st.StaleReads != 0 {
						t.Fatalf("%d stale reads with inline values", st.StaleReads)
					}
					h.Flush()
					h2.Flush()
				})
			}
		})
	}
}

func TestStoreScanUnorderedPanics(t *testing.T) {
	g := newGroup(core.NR, 1, 1)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := acquire(t, s)
	defer func() {
		if recover() == nil {
			t.Fatal("Scan on unordered store did not panic")
		}
	}()
	s.Scan(h, 0, 100, func(int64, []byte) bool { return true })
}

// TestStoreDefaultBacking pins what Config.Ordered builds: the zero
// Config is an unordered hash table of 2^17 one-word buckets per shard,
// whose Scan panics naming the missing Ordered; Ordered is an (a,b)-tree
// per shard, whose Scan yields each shard's keys ascending.
func TestStoreDefaultBacking(t *testing.T) {
	s, err := New(newGroup(core.NR, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ordered() {
		t.Fatal("the zero Config built an ordered store")
	}
	for i := range s.shards {
		if n := s.shards[i].m.(*hashtable.Table).Buckets(); n != 1<<17 {
			t.Fatalf("shard %d has %d buckets, want %d", i, n, 1<<17)
		}
	}
	t.Run("Ordered", func(t *testing.T) {
		s, err := New(newGroup(core.NR, 1, 1), Config{Shards: 1, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Ordered() {
			t.Fatal("Config.Ordered built an unordered store")
		}
		if _, ok := s.shards[0].m.(*abtree.Tree); !ok {
			t.Fatalf("ordered shard is %T, want *abtree.Tree", s.shards[0].m)
		}
		h := acquire(t, s)
		for i := range 100 {
			s.Put(h, workload.KeyString(int64(i)), []byte("v"))
		}
		var got []int64
		s.Scan(h, math.MinInt64+1, math.MaxInt64-1, func(hk int64, _ []byte) bool {
			got = append(got, hk)
			return true
		})
		if len(got) != 100 || !slices.IsSorted(got) {
			t.Fatalf("Scan of one shard yielded %d keys, sorted %v; want 100 ascending", len(got), slices.IsSorted(got))
		}
	})
	h := acquire(t, s)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Ordered") {
			t.Fatalf("Scan on the default store panicked with %v, want Ordered named", r)
		}
	}()
	s.Scan(h, 0, 100, func(int64, []byte) bool { return true })
}

func TestStoreConfigValidation(t *testing.T) {
	s, err := New(core.NewDomainGroup(core.NR, 1, 1, nil), Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 8 {
		t.Fatalf("Shards() = %d, want rounded-up 8", s.Shards())
	}
	// More member domains than shards has no shard→member mapping.
	if _, err := New(core.NewDomainGroup(core.NR, 8, 1, nil), Config{Shards: 4}); err == nil {
		t.Fatal("members > shards accepted")
	}
}
