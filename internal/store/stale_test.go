// The stale-value storm lives in an external test package so it can
// assert through the shared chaos.Invariants checker (internal/chaos
// imports store, so an in-package test would cycle). Store internals it
// needs — raw handle capture and direct arena reads — are exported via
// export_test.go.
package store_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pop/internal/arena"
	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/rng"
	"pop/internal/store"
	"pop/internal/workload"
)

// stormGroup mirrors the in-package test groups: thresholds small
// enough that reclamation genuinely runs during the storm.
func stormGroup(p core.Policy, members, slots int) *core.DomainGroup {
	return core.NewDomainGroup(p, members, slots, &core.Options{
		ReclaimThreshold: 32,
		EpochFreq:        8,
		BatchSize:        8,
	})
}

// stormVal builds the canonical checksummed payload for key.
func stormVal(buf []byte, key string, tag uint32, size int) []byte {
	return workload.AppendValueBytes(buf[:0], store.KeyHash(key), tag, size)
}

// TestStoreStaleValueDetection is the value-retirement coverage storm:
// readers deliberately capture value handles and hold them across an
// overwrite window before dereferencing — the exact misuse the arena's
// sequence discipline exists to catch. The invariant, under every
// policy: a held handle's Read either fails (stale detected) or returns
// a payload that still passes the key's checksum (the value genuinely
// had not been freed yet — legal, since retire-to-free latency is the
// policy's choice). A successful Read of corrupt bytes is an undetected
// use-after-free and fails the test.
//
// The storm phase races detection against real reclamation; the
// deterministic phase then proves completeness: after every thread
// flushes, policies that drained their retire lists must flag *every*
// held handle as stale. The store is grouped (4 shards over 2 member
// domains), so value retirement also crosses the member mapping.
func TestStoreStaleValueDetection(t *testing.T) {
	const (
		threads = 4 // writers + handle-holding readers
		hotKeys = 16
		rounds  = 50
	)
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			g := stormGroup(p, 2, threads+1)
			s, err := store.New(g, store.Config{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			hs := make([]*core.GroupHandle, threads+1)
			for i := range hs {
				if hs[i], err = s.Acquire(); err != nil {
					t.Fatal(err)
				}
			}
			keyTab := make([]string, hotKeys)
			hkTab := make([]int64, hotKeys)
			var vbuf []byte
			for i := range keyTab {
				keyTab[i] = workload.KeyString(int64(i))
				hkTab[i] = store.KeyHash(keyTab[i])
				vbuf = stormVal(vbuf, keyTab[i], uint32(i), 48)
				s.Put(hs[0], keyTab[i], vbuf)
			}

			var (
				overwrites [hotKeys]atomic.Uint64 // per-key overwrite progress
				undetected atomic.Uint64          // stale reads served as live garbage
				detected   atomic.Uint64          // stale reads flagged by the seq check
				stop       atomic.Bool
			)
			var wg sync.WaitGroup
			// Writers: continuous overwrites of the hot set.
			for w := 0; w < threads/2; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := hs[id]
					r := rng.New(uint64(id)*131 + uint64(p))
					var vb []byte
					tag := uint32(id) << 24
					for !stop.Load() {
						i := int(r.Intn(hotKeys))
						tag++
						vb = stormVal(vb, keyTab[i], tag, 16+int(r.Intn(500)))
						s.Put(h, keyTab[i], vb)
						overwrites[i].Add(1)
					}
				}(w)
			}
			// Readers: capture a handle, wait until the key has provably
			// been overwritten twice (so the captured handle is retired),
			// then dereference it. These drive the storm's duration — the
			// writers churn until every holder has finished its rounds.
			var holders sync.WaitGroup
			for w := threads / 2; w < threads; w++ {
				wg.Add(1)
				holders.Add(1)
				go func(id int) {
					defer wg.Done()
					defer holders.Done()
					h := hs[id]
					r := rng.New(uint64(id)*997 + uint64(p))
					var rb []byte
					for n := 0; n < rounds; n++ {
						i := int(r.Intn(hotKeys))
						rh, ok := s.RawHandle(h, keyTab[i])
						if !ok {
							continue
						}
						gen := overwrites[i].Load()
						// Hold the handle across an overwrite window (yield:
						// the writers make the progress being waited on). One
						// overwrite past the capture retires the held handle.
						for overwrites[i].Load() < gen+1 {
							h.Poll()
							runtime.Gosched()
						}
						var rok bool
						rb, rok = s.ReadRaw(rh, rb)
						switch {
						case !rok:
							detected.Add(1)
						case !workload.ValueBytesValid(hkTab[i], rb):
							undetected.Add(1) // garbage served as live: the bug
						}
					}
				}(w)
			}
			// One more reader uses the public Get path throughout, so the
			// retrying read is also exercised while values churn.
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := hs[threads]
				r := rng.New(uint64(p) + 17)
				var gb []byte
				for !stop.Load() {
					i := int(r.Intn(hotKeys))
					var ok bool
					gb, ok = s.Get(h, keyTab[i], gb)
					if ok && !workload.ValueBytesValid(hkTab[i], gb) {
						undetected.Add(1)
					}
				}
			}()
			holders.Wait()
			stop.Store(true)
			wg.Wait()

			iv := chaos.Invariants{Policy: p}
			if vs := iv.CheckValueErrors(undetected.Load()); len(vs) != 0 {
				t.Fatalf("invariant violated under %v: %v", p, chaos.Errs(vs))
			}

			// Deterministic completeness: capture every key's current
			// handle, overwrite every key once (retiring those handles),
			// and flush. If the policy drained its retire lists, every
			// captured handle must now be flagged stale.
			h := hs[0]
			held := make([]arena.Handle, 0, hotKeys)
			for _, key := range keyTab {
				if rh, ok := s.RawHandle(h, key); ok {
					held = append(held, rh)
				}
			}
			var vb []byte
			for i, key := range keyTab {
				vb = stormVal(vb, key, 0xfff0+uint32(i), 64)
				s.Put(h, key, vb)
			}
			for _, hh := range hs {
				hh.Flush()
			}
			if g.Unreclaimed() == 0 {
				for _, rh := range held {
					if s.CheckRawHandle(rh) {
						t.Fatalf("handle %x still live after its retirement was reclaimed", uint64(rh))
					}
					if _, ok := s.ReadRaw(rh, nil); ok {
						t.Fatalf("handle %x readable after reclamation", uint64(rh))
					}
				}
			} else if p != core.NR && p != core.Crystalline {
				t.Logf("%v: %d retired nodes survived flush (allowed, detection still verified)", p, g.Unreclaimed())
			}
			// Value-plane sweep and counter sanity via the shared checker.
			var vs []chaos.Violation
			vs = append(vs, iv.CheckValues(h, s, keyTab)...)
			vs = append(vs, iv.CheckCounters(g.Stats())...)
			for _, v := range vs {
				t.Errorf("invariant violated: %s", v)
			}
			t.Logf("%v: %d stale dereferences detected during the storm", p, detected.Load())
		})
	}
}

// TestStoreStaleHandleNeverServesNewKeyData pins the recycling case: a
// handle held across free *and reallocation to another key* must not
// read the new key's bytes through the old handle.
func TestStoreStaleHandleNeverServesNewKeyData(t *testing.T) {
	g := stormGroup(core.EBR, 1, 1)
	s, err := store.New(g, store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.Put(th, "victim", []byte("victim-value-000"))
	h, ok := s.RawHandle(th, "victim")
	if !ok {
		t.Fatal("no handle")
	}
	// Retire the handle and force its slot back into circulation.
	s.Delete(th, "victim")
	th.Flush()
	var reused bool
	for i := 0; i < 5000 && !reused; i++ {
		key := fmt.Sprintf("other-%d", i)
		s.Put(th, key, []byte("other-value-0000"))
		if nh, ok := s.RawHandle(th, key); ok && nh.SameSlot(h) {
			reused = true
		}
	}
	if !reused {
		t.Skip("slot not recycled within budget (cache order changed?)")
	}
	if _, ok := s.ReadRaw(h, nil); ok {
		t.Fatal("stale handle read another key's slot")
	}
	if s.CheckRawHandle(h) {
		t.Fatal("stale handle passed CheckHandle")
	}
}
