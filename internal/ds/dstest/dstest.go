// Package dstest is the conformance suite every concurrent structure in
// this repository must pass, under every reclamation policy. Data-
// structure packages call Run from their tests; the suite exercises:
//
//   - sequential set semantics (insert/delete/contains truth table,
//     ordering, duplicates, sentinels) as the paper's workloads run
//     them: PutIfAbsent with a zero value, Delete and Get;
//   - sequential map semantics (get-after-put, put-if-absent,
//     last-writer-wins overwrite, delete returning the removed value);
//   - randomized sequential equivalence against reference maps;
//   - concurrent mixed workloads with a net-count invariant (inserts
//     minus deletes equals final size);
//   - a concurrent overwrite storm on a small shared key set: every
//     thread writes globally unique values and the returned old values
//     must chain perfectly (each written value is returned as "old"
//     exactly once or survives as a final value) — the linearizability
//     check for replace-node/in-place/CoW overwrite strategies;
//   - per-thread key-stripe map workloads validated exactly against a
//     reference map, including every returned old value, while
//     neighbouring stripes churn;
//   - reclamation pressure (tiny retire thresholds force constant
//     reclaim/ping traffic while readers traverse);
//   - a delayed-thread scenario that must not break safety;
//   - for structures implementing ds.InOp, many lookups inside one
//     caller-opened operation checked against per-key Gets: quiescent
//     exactness (hits, misses, duplicates) and per-thread owned-stripe
//     validation under concurrent churn, where each round's puts are
//     also one caller-opened operation whose returned old values are
//     checked against the reference;
//   - for structures implementing ds.RangeScanner, range-query
//     validation against a mutex-guarded reference model: exact
//     equivalence sequentially and over per-thread key stripes under
//     concurrent churn, plus global-scan invariants (sorted,
//     duplicate-free, in-bounds, all permanently-present keys reported,
//     no never-inserted key ever reported) and scanned values checked
//     pair-exactly, early stops included.
//
// A use-after-free is caught here only when it changes what an operation
// returns: a failed invariant, a mismatch against the reference model,
// or a broken overwrite chain. Node pools have no poison function
// (core.NewNodes, their one constructor, passes none to the arena) and
// nothing calls arena.Check, so a stale read that still returns the
// right answer passes; core's seeded tape (differential_test.go) is the
// check that poisons freed nodes.
package dstest

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/rng"
)

// Factory builds a fresh map instance over the given domain.
type Factory func(d *core.Domain) ds.Map

// Config tunes the suite for a data structure's cost profile.
type Config struct {
	// KeyRange bounds random keys to [0, KeyRange).
	KeyRange int64
	// ConcOps is the per-goroutine operation count in concurrent tests.
	ConcOps int
	// Threads is the concurrency level (defaults to 4).
	Threads int
	// SkipPolicies lists policies the structure does not support.
	SkipPolicies []core.Policy
}

func (c Config) withDefaults() Config {
	if c.KeyRange <= 0 {
		c.KeyRange = 512
	}
	if c.ConcOps <= 0 {
		c.ConcOps = 3000
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	return c
}

func (c Config) skip(p core.Policy) bool {
	for _, s := range c.SkipPolicies {
		if s == p {
			return true
		}
	}
	return false
}

// Run executes the full conformance suite: the set-contract suites
// (the map driven with key-only calls), the map-contract suites, and —
// for structures implementing ds.RangeScanner — the range-query suites.
func Run(t *testing.T, f Factory, cfg Config) {
	cfg = cfg.withDefaults()
	probe := f(newDomain(core.NR, 1))
	_, ranged := probe.(ds.RangeScanner)
	_, inOp := probe.(ds.InOp)
	for _, p := range core.Policies() {
		if cfg.skip(p) {
			continue
		}
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Run("Sequential", func(t *testing.T) { sequential(t, f, p) })
			t.Run("RandomizedVsMap", func(t *testing.T) { randomizedVsMap(t, f, p, cfg) })
			t.Run("ConcurrentInvariant", func(t *testing.T) { concurrentInvariant(t, f, p, cfg) })
			t.Run("ConcurrentDistinctKeys", func(t *testing.T) { concurrentDistinctKeys(t, f, p, cfg) })
			t.Run("DelayedReader", func(t *testing.T) { delayedReader(t, f, p, cfg) })
			t.Run("MapSequential", func(t *testing.T) { mapSequential(t, f, p) })
			t.Run("MapRandomizedVsRef", func(t *testing.T) { mapRandomizedVsRef(t, f, p, cfg) })
			t.Run("MapOverwriteStorm", func(t *testing.T) { mapOverwriteStorm(t, f, p, cfg) })
			t.Run("MapOwnedStripes", func(t *testing.T) { mapOwnedStripes(t, f, p, cfg) })
			if inOp {
				t.Run("MapBatchGet", func(t *testing.T) { mapBatchGet(t, f, p, cfg) })
			}
			if ranged {
				t.Run("RangeSequentialVsRef", func(t *testing.T) { rangeSequentialVsRef(t, f, p, cfg) })
				t.Run("RangeKVVsRef", func(t *testing.T) { rangeKVVsRef(t, f, p, cfg) })
				t.Run("RangeOwnedStripes", func(t *testing.T) { rangeOwnedStripes(t, f, p, cfg) })
				t.Run("RangeChurnInvariants", func(t *testing.T) { rangeChurnInvariants(t, f, p, cfg) })
			}
		})
	}
}

// ScanKeys appends the keys rs scans in [lo, hi], ascending, to buf[:0]
// and returns the filled slice.
func ScanKeys(rs ds.RangeScanner, t *core.Thread, lo, hi int64, buf []int64) []int64 {
	buf = buf[:0]
	rs.Scan(t, lo, hi, func(k int64, _ uint64) bool { buf = append(buf, k); return true })
	return buf
}

// ScanCount counts the keys rs scans in [lo, hi].
func ScanCount(rs ds.RangeScanner, t *core.Thread, lo, hi int64) int {
	n := 0
	rs.Scan(t, lo, hi, func(int64, uint64) bool { n++; return true })
	return n
}

// newDomain builds a domain with a tiny reclaim threshold so reclamation
// paths run constantly during the suite.
func newDomain(p core.Policy, threads int) *core.Domain {
	return core.NewDomain(p, threads, &core.Options{
		ReclaimThreshold: 32,
		EpochFreq:        8,
		BatchSize:        8,
	})
}

func sequential(t *testing.T, f Factory, p core.Policy) {
	d := newDomain(p, 1)
	m := f(d)
	th := d.RegisterThread()

	if _, ok := m.Get(th, 10); ok {
		t.Fatal("empty set contains 10")
	}
	if _, ok := m.Delete(th, 10); ok {
		t.Fatal("delete from empty set succeeded")
	}
	if !m.PutIfAbsent(th, 10, 0) {
		t.Fatal("insert 10 failed")
	}
	if m.PutIfAbsent(th, 10, 0) {
		t.Fatal("duplicate insert 10 succeeded")
	}
	if _, ok := m.Get(th, 10); !ok {
		t.Fatal("set lost 10")
	}
	// Neighbours must not be confused with 10.
	for _, k := range []int64{9, 11, 0, 1 << 40} {
		if _, ok := m.Get(th, k); ok {
			t.Fatalf("phantom key %d", k)
		}
	}
	if _, ok := m.Delete(th, 10); !ok {
		t.Fatal("delete 10 failed")
	}
	if _, ok := m.Get(th, 10); ok {
		t.Fatal("10 survived delete")
	}
	if _, ok := m.Delete(th, 10); ok {
		t.Fatal("double delete succeeded")
	}

	// Ascending, descending, interleaved batches.
	for i := int64(0); i < 64; i++ {
		if !m.PutIfAbsent(th, i, 0) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := int64(127); i >= 64; i-- {
		if !m.PutIfAbsent(th, i, 0) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := int64(0); i < 128; i++ {
		if _, ok := m.Get(th, i); !ok {
			t.Fatalf("missing %d", i)
		}
	}
	if got := m.Size(th); got != 128 {
		t.Fatalf("Size = %d, want 128", got)
	}
	// Delete evens, verify odds.
	for i := int64(0); i < 128; i += 2 {
		if _, ok := m.Delete(th, i); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := int64(0); i < 128; i++ {
		want := i%2 == 1
		if _, got := m.Get(th, i); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	th.Flush()
}

// mapSequential is the single-threaded truth table for the map
// contract: get-after-put visibility, put-if-absent semantics,
// last-writer-wins overwrite with exact old values, and delete
// returning the removed value.
func mapSequential(t *testing.T, f Factory, p core.Policy) {
	d := newDomain(p, 1)
	m := f(d)
	th := d.RegisterThread()

	if _, ok := m.Get(th, 7); ok {
		t.Fatal("empty map Get(7) reported a value")
	}
	if _, ok := m.Delete(th, 7); ok {
		t.Fatal("empty map Delete(7) succeeded")
	}
	if old, replaced := m.Put(th, 7, 100); replaced || old != 0 {
		t.Fatalf("Put(7) on empty map = (%d, %v), want (0, false)", old, replaced)
	}
	if v, ok := m.Get(th, 7); !ok || v != 100 {
		t.Fatalf("Get(7) after Put = (%d, %v), want (100, true)", v, ok)
	}
	// Put-if-absent must not disturb a present key.
	if m.PutIfAbsent(th, 7, 200) {
		t.Fatal("PutIfAbsent(7) succeeded on a present key")
	}
	if v, _ := m.Get(th, 7); v != 100 {
		t.Fatalf("PutIfAbsent overwrote: Get(7) = %d, want 100", v)
	}
	// Overwrite returns the exact replaced value, repeatedly.
	for i, want := range []uint64{100, 300, 400} {
		next := uint64(300 + 100*i)
		if old, replaced := m.Put(th, 7, next); !replaced || old != want {
			t.Fatalf("Put(7, %d) = (%d, %v), want (%d, true)", next, old, replaced, want)
		}
	}
	if v, _ := m.Get(th, 7); v != 500 {
		t.Fatalf("after overwrite chain Get(7) = %d, want 500", v)
	}
	// Neighbours carry their own values.
	if !m.PutIfAbsent(th, 6, 60) || !m.PutIfAbsent(th, 8, 80) {
		t.Fatal("PutIfAbsent on absent neighbours failed")
	}
	for k, want := range map[int64]uint64{6: 60, 7: 500, 8: 80} {
		if v, ok := m.Get(th, k); !ok || v != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, want)
		}
	}
	// Delete returns the removed value; the key is gone afterwards.
	if v, ok := m.Delete(th, 7); !ok || v != 500 {
		t.Fatalf("Delete(7) = (%d, %v), want (500, true)", v, ok)
	}
	if _, ok := m.Get(th, 7); ok {
		t.Fatal("7 survived delete")
	}
	if v, ok := m.Delete(th, 6); !ok || v != 60 {
		t.Fatalf("Delete(6) = (%d, %v), want (60, true)", v, ok)
	}
	// Re-insert after delete starts a fresh value history.
	if old, replaced := m.Put(th, 7, 999); replaced || old != 0 {
		t.Fatalf("Put(7) after delete = (%d, %v), want (0, false)", old, replaced)
	}
	if v, _ := m.Get(th, 7); v != 999 {
		t.Fatalf("Get(7) after re-insert = %d, want 999", v)
	}
	th.Flush()
}

// mapRandomizedVsRef drives the map with a random single-threaded tape
// and checks every result — including returned old values — against a
// reference map.
func mapRandomizedVsRef(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, 1)
	m := f(d)
	th := d.RegisterThread()
	ref := make(map[int64]uint64)
	r := rng.New(uint64(0xBEEF) ^ uint64(p)<<4)

	for i := 0; i < 4000; i++ {
		k := r.Intn(cfg.KeyRange)
		v := r.Uint64()
		switch r.Intn(4) {
		case 0:
			wantOld, wantReplaced := ref[k], false
			if _, present := ref[k]; present {
				wantReplaced = true
			}
			old, replaced := m.Put(th, k, v)
			if replaced != wantReplaced || old != wantOld {
				t.Fatalf("op %d: Put(%d) = (%d, %v), want (%d, %v)", i, k, old, replaced, wantOld, wantReplaced)
			}
			ref[k] = v
		case 1:
			_, present := ref[k]
			if got := m.PutIfAbsent(th, k, v); got != !present {
				t.Fatalf("op %d: PutIfAbsent(%d) = %v, want %v", i, k, got, !present)
			}
			if !present {
				ref[k] = v
			}
		case 2:
			wantV, wantOK := ref[k]
			v, ok := m.Delete(th, k)
			if ok != wantOK || v != wantV {
				t.Fatalf("op %d: Delete(%d) = (%d, %v), want (%d, %v)", i, k, v, ok, wantV, wantOK)
			}
			delete(ref, k)
		default:
			wantV, wantOK := ref[k]
			v, ok := m.Get(th, k)
			if ok != wantOK || v != wantV {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, v, ok, wantV, wantOK)
			}
		}
	}
	if got := m.Size(th); got != len(ref) {
		t.Fatalf("Size = %d, want %d", got, len(ref))
	}
	th.Flush()
}

// mapOverwriteStorm hammers a small shared key set with overwrites
// only. Every thread writes globally unique values and records its own
// writes and returned old values privately — nothing synchronizes the
// storm but the map itself, so replace-CAS races (two replacers on one
// victim, replace vs delete at level 0) actually happen. At the end,
// for every key, the value chain must balance exactly: {initial value}
// ∪ {written values} = {values returned as old} ∪ {final value}, each
// exactly once. A lost update, a doubled old value, or a value from a
// reclaimed node would unbalance the multiset — this is the
// linearizability check for every overwrite strategy (replace-node,
// in-place, CoW leaf).
func mapOverwriteStorm(t *testing.T, f Factory, p core.Policy, cfg Config) {
	const nkeys = 16
	d := newDomain(p, cfg.Threads)
	m := f(d)
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}

	// Prefill each key with a unique tagged value (tag 0, slot = key).
	mkVal := func(writer, seq int) uint64 {
		return uint64(writer+1)<<32 | uint64(seq)
	}
	written := make(map[int64][]uint64, nkeys)
	for k := int64(0); k < nkeys; k++ {
		v := mkVal(0, int(k))
		if old, replaced := m.Put(threads[0], k, v); replaced || old != 0 {
			t.Fatalf("prefill Put(%d) = (%d, %v)", k, old, replaced)
		}
		written[k] = append(written[k], v)
	}

	ops := cfg.ConcOps
	wrote := make([]map[int64][]uint64, cfg.Threads)
	returned := make([]map[int64][]uint64, cfg.Threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wrote[i] = make(map[int64][]uint64)
		returned[i] = make(map[int64][]uint64)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			r := rng.New(uint64(id)*6364136223846793005 + uint64(p))
			for n := 0; n < ops; n++ {
				k := r.Intn(nkeys)
				v := mkVal(id+1, n)
				wrote[id][k] = append(wrote[id][k], v)
				old, replaced := m.Put(th, k, v)
				if !replaced {
					t.Errorf("thread %d: Put(%d) found the key absent mid-storm", id, k)
					return
				}
				returned[id][k] = append(returned[id][k], old)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for id := range wrote {
		for k, vs := range wrote[id] {
			written[k] = append(written[k], vs...)
		}
	}

	// Balance the chains: per key, olds ∪ {final} must equal written.
	for k := int64(0); k < nkeys; k++ {
		final, ok := m.Get(threads[0], k)
		if !ok {
			t.Fatalf("key %d absent after storm", k)
		}
		seen := make(map[uint64]int, len(written[k]))
		for _, v := range written[k] {
			seen[v]++
			if seen[v] > 1 {
				t.Fatalf("key %d: duplicate written value %#x (test bug)", k, v)
			}
		}
		consume := func(v uint64, what string) {
			c, present := seen[v]
			if !present {
				t.Fatalf("key %d: %s value %#x was never written", k, what, v)
			}
			if c == 0 {
				t.Fatalf("key %d: %s value %#x consumed twice (overwrite chain forked)", k, what, v)
			}
			seen[v] = 0
		}
		for id := range returned {
			for _, old := range returned[id][k] {
				consume(old, "returned-old")
			}
		}
		consume(final, "final")
		for v, c := range seen {
			if c != 0 {
				t.Fatalf("key %d: written value %#x neither returned as old nor final (lost update)", k, v)
			}
		}
	}
	for _, th := range threads {
		th.Flush()
	}
	if p != core.NR {
		if u := d.Unreclaimed(); u != 0 {
			t.Fatalf("%d unreclaimed nodes after quiescent flush", u)
		}
	}
}

// mapOwnedStripes gives each thread a private key stripe and validates
// every operation result — values, old values, removed values — exactly
// against a per-thread reference map while the other stripes churn the
// same structure (get-after-put visibility under full concurrency).
func mapOwnedStripes(t *testing.T, f Factory, p core.Policy, cfg Config) {
	const stripe = 256
	d := newDomain(p, cfg.Threads)
	m := f(d)
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			lo := int64(id) * stripe
			ref := make(map[int64]uint64)
			r := rng.New(uint64(id)*2862933555777941757 + uint64(p) + 11)
			for n := 0; n < cfg.ConcOps; n++ {
				k := lo + r.Intn(stripe)
				v := r.Uint64()
				switch r.Intn(8) {
				case 0, 1:
					wantOld, wantReplaced := ref[k], false
					if _, present := ref[k]; present {
						wantReplaced = true
					}
					old, replaced := m.Put(th, k, v)
					if replaced != wantReplaced || old != wantOld {
						errs <- fmt.Errorf("thread %d: Put(%d) = (%d, %v), want (%d, %v)", id, k, old, replaced, wantOld, wantReplaced)
						return
					}
					ref[k] = v
				case 2, 3:
					_, present := ref[k]
					if got := m.PutIfAbsent(th, k, v); got != !present {
						errs <- fmt.Errorf("thread %d: PutIfAbsent(%d) = %v, want %v", id, k, got, !present)
						return
					}
					if !present {
						ref[k] = v
					}
				case 4, 5:
					wantV, wantOK := ref[k]
					got, ok := m.Delete(th, k)
					if ok != wantOK || got != wantV {
						errs <- fmt.Errorf("thread %d: Delete(%d) = (%d, %v), want (%d, %v)", id, k, got, ok, wantV, wantOK)
						return
					}
					delete(ref, k)
				default:
					wantV, wantOK := ref[k]
					got, ok := m.Get(th, k)
					if ok != wantOK || got != wantV {
						errs <- fmt.Errorf("thread %d: Get(%d) = (%d, %v), want (%d, %v) — stale read", id, k, got, ok, wantV, wantOK)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, th := range threads {
		th.Flush()
	}
	if p != core.NR {
		if u := d.Unreclaimed(); u != 0 {
			t.Fatalf("%d unreclaimed nodes after quiescent flush", u)
		}
	}
}

func randomizedVsMap(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, 1)
	m := f(d)
	th := d.RegisterThread()
	ref := make(map[int64]bool)
	r := rng.New(uint64(0xC0FFEE) ^ uint64(p))

	for i := 0; i < 4000; i++ {
		k := r.Intn(cfg.KeyRange)
		switch r.Intn(3) {
		case 0:
			want := !ref[k]
			if got := m.PutIfAbsent(th, k, 0); got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
			ref[k] = true
		case 1:
			want := ref[k]
			if _, got := m.Delete(th, k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		default:
			if _, got := m.Get(th, k); got != ref[k] {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", i, k, got, ref[k])
			}
		}
	}
	if got := m.Size(th); got != len(ref) {
		t.Fatalf("Size = %d, want %d", got, len(ref))
	}
	th.Flush()
}

// concurrentInvariant hammers the set from several goroutines and checks
// that successful inserts minus successful deletes equals the final size.
func concurrentInvariant(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, cfg.Threads)
	m := f(d)
	var net atomic.Int64
	var wg sync.WaitGroup
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			r := rng.New(uint64(id)*7919 + uint64(p))
			local := int64(0)
			for n := 0; n < cfg.ConcOps; n++ {
				k := r.Intn(cfg.KeyRange)
				switch r.Intn(10) {
				case 0, 1, 2, 3:
					if m.PutIfAbsent(th, k, 0) {
						local++
					}
				case 4, 5, 6, 7:
					if _, ok := m.Delete(th, k); ok {
						local--
					}
				default:
					m.Get(th, k)
				}
			}
			net.Add(local)
		}(i)
	}
	wg.Wait()

	if got := m.Size(threads[0]); int64(got) != net.Load() {
		t.Fatalf("net inserts %d != final size %d", net.Load(), got)
	}
	for _, th := range threads {
		th.Flush()
	}
	// Everything retired must be freed once all threads are quiescent
	// (except NR, which leaks by design).
	if p != core.NR {
		if u := d.Unreclaimed(); u != 0 {
			t.Fatalf("%d unreclaimed nodes after quiescent flush", u)
		}
	}
}

// concurrentDistinctKeys gives each goroutine a private key range so
// every operation's outcome is deterministic even under concurrency.
func concurrentDistinctKeys(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, cfg.Threads)
	m := f(d)
	var wg sync.WaitGroup
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	errs := make(chan error, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			base := int64(id) * 1_000_000
			for k := base; k < base+200; k++ {
				if !m.PutIfAbsent(th, k, 0) {
					errs <- fmt.Errorf("thread %d: insert %d failed", id, k)
					return
				}
			}
			for k := base; k < base+200; k++ {
				if _, ok := m.Get(th, k); !ok {
					errs <- fmt.Errorf("thread %d: lost key %d", id, k)
					return
				}
			}
			for k := base; k < base+200; k += 2 {
				if _, ok := m.Delete(th, k); !ok {
					errs <- fmt.Errorf("thread %d: delete %d failed", id, k)
					return
				}
			}
			for k := base; k < base+200; k++ {
				want := k%2 == 1
				if _, got := m.Get(th, k); got != want {
					errs <- fmt.Errorf("thread %d: Contains(%d)=%v want %v", id, k, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, th := range threads {
		th.Flush()
	}
}

// delayedReader holds one thread inside an operation (answering polls,
// like a thread busy with other work) while writers churn. Robust
// policies must keep reclaiming; all policies must stay safe.
func delayedReader(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, 3)
	m := f(d)
	reader := d.RegisterThread()
	w1 := d.RegisterThread()
	w2 := d.RegisterThread()

	// Seed some keys so the reader has something to look at.
	for k := int64(0); k < 32; k++ {
		m.PutIfAbsent(w1, k, 0)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The reader performs one op, then stalls inside a fresh op
		// polling (busy-delayed), then resumes.
		m.Get(reader, 1)
		reader.StartOp()
		for {
			select {
			case <-stop:
				reader.EndOp()
				return
			default:
				reader.Poll()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for _, th := range []*core.Thread{w1, w2} {
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			r := rng.New(uint64(th.ID()) + 99)
			for n := 0; n < cfg.ConcOps; n++ {
				k := r.Intn(cfg.KeyRange)
				if r.Intn(2) == 0 {
					m.PutIfAbsent(th, k, 0)
				} else {
					m.Delete(th, k)
				}
			}
		}(th)
	}
	wg.Wait()
	close(stop)
	<-done

	st := d.Stats()
	if p.Robust() && st.Frees == 0 && st.Retires > 64 {
		t.Fatalf("robust policy %v freed nothing under a delayed reader (retires=%d)", p, st.Retires)
	}
	for _, th := range []*core.Thread{reader, w1, w2} {
		th.Flush()
	}
}

// ---------------------------------------------------------------------
// Range-query suites (structures implementing ds.RangeScanner)
// ---------------------------------------------------------------------

// refSet is the mutex-guarded reference model range results are
// validated against.
type refSet struct {
	mu   sync.Mutex
	keys map[int64]bool
}

func newRefSet() *refSet { return &refSet{keys: make(map[int64]bool)} }

func (r *refSet) insert(k int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	return true
}

func (r *refSet) delete(k int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.keys[k] {
		return false
	}
	delete(r.keys, k)
	return true
}

// sortedRange returns the model's keys in [lo, hi], ascending.
func (r *refSet) sortedRange(lo, hi int64) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for k := range r.keys {
		if k >= lo && k <= hi {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// checkScanShape verifies the structural guarantees every concurrent
// scan must satisfy regardless of interleaving: sorted, duplicate-free,
// within bounds.
func checkScanShape(t *testing.T, got []int64, lo, hi int64) {
	t.Helper()
	for i, k := range got {
		if k < lo || k > hi {
			t.Fatalf("scan[%d] = %d outside [%d, %d]", i, k, lo, hi)
		}
		if i > 0 && got[i-1] >= k {
			t.Fatalf("scan not strictly ascending at %d: %d then %d", i, got[i-1], k)
		}
	}
}

// rangeSequentialVsRef checks collected and counted scans for exact
// equivalence with the reference model under a random single-threaded
// history (every scan here is linearizable trivially).
func rangeSequentialVsRef(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, 1)
	m := f(d)
	rs := m.(ds.RangeScanner)
	th := d.RegisterThread()
	ref := newRefSet()
	r := rng.New(uint64(0x5ca9) ^ uint64(p)<<8)
	var buf []int64

	for i := 0; i < 3000; i++ {
		k := r.Intn(cfg.KeyRange)
		switch r.Intn(4) {
		case 0:
			if got, want := m.PutIfAbsent(th, k, 0), ref.insert(k); got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
		case 1:
			_, got := m.Delete(th, k)
			if want := ref.delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
		default:
			lo := r.Intn(cfg.KeyRange)
			hi := lo + r.Intn(cfg.KeyRange/8+1)
			want := ref.sortedRange(lo, hi)
			buf = ScanKeys(rs, th, lo, hi, buf)
			checkScanShape(t, buf, lo, hi)
			if len(buf) != len(want) {
				t.Fatalf("op %d: scan(%d,%d) -> %d keys, want %d", i, lo, hi, len(buf), len(want))
			}
			for j := range want {
				if buf[j] != want[j] {
					t.Fatalf("op %d: scan(%d,%d)[%d] = %d, want %d", i, lo, hi, j, buf[j], want[j])
				}
			}
			if got := ScanCount(rs, th, lo, hi); got != len(want) {
				t.Fatalf("op %d: ScanCount(%d,%d) = %d, want %d", i, lo, hi, got, len(want))
			}
		}
	}
	th.Flush()
}

// rangeOwnedStripes gives each thread a private key stripe it both
// mutates and scans: a scan over the thread's own stripe must match its
// reference exactly even though neighbouring stripes churn concurrently
// (scans traverse foreign nodes on the way, so snips, towers being
// built, and reclamation all interleave with validation). Mutations mix
// set-style inserts with value overwrites so scans also cross nodes
// being replaced (the overwrite retirement path).
func rangeOwnedStripes(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, cfg.Threads)
	m := f(d)
	rs := m.(ds.RangeScanner)
	const stripe = 256
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			lo := int64(id) * stripe
			hi := lo + stripe - 1
			ref := newRefSet()
			r := rng.New(uint64(id)*131 + uint64(p))
			var buf []int64
			for n := 0; n < cfg.ConcOps; n++ {
				k := lo + r.Intn(stripe)
				switch r.Intn(8) {
				case 0, 1, 2:
					if got, want := m.PutIfAbsent(th, k, 0), ref.insert(k); got != want {
						errs <- fmt.Errorf("thread %d: Insert(%d) = %v, want %v", id, k, got, want)
						return
					}
				case 3, 4:
					_, got := m.Delete(th, k)
					if want := ref.delete(k); got != want {
						errs <- fmt.Errorf("thread %d: Delete(%d) = %v, want %v", id, k, got, want)
						return
					}
				case 5:
					// Overwrite: the key's presence must not change.
					m.Put(th, k, uint64(n))
					ref.insert(k)
				default:
					want := ref.sortedRange(lo, hi)
					buf = ScanKeys(rs, th, lo, hi, buf)
					if len(buf) != len(want) {
						errs <- fmt.Errorf("thread %d: scan [%d,%d] -> %d keys, want %d", id, lo, hi, len(buf), len(want))
						return
					}
					for j := range want {
						if buf[j] != want[j] {
							errs <- fmt.Errorf("thread %d: scan [%d,%d][%d] = %d, want %d", id, lo, hi, j, buf[j], want[j])
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, th := range threads {
		th.Flush()
	}
	if p != core.NR {
		if u := d.Unreclaimed(); u != 0 {
			t.Fatalf("%d unreclaimed nodes after quiescent flush", u)
		}
	}
}

// rangeChurnInvariants scans the whole structure while writers churn a
// middle stripe. Keys are split mod 3: residue 0 is inserted up front
// and never touched (every covering scan must report all of them),
// residue 1 churns (a scanned key must at least be one the churners ever
// insert), residue 2 is never inserted (must never appear). Half the
// churn is overwrites, so scans constantly cross replaced nodes without
// the key set changing.
func rangeChurnInvariants(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, cfg.Threads+1)
	m := f(d)
	rs := m.(ds.RangeScanner)
	scanner := d.RegisterThread()
	writers := make([]*core.Thread, cfg.Threads)
	for i := range writers {
		writers[i] = d.RegisterThread()
	}

	permanent := make(map[int64]bool)
	for k := int64(0); k < cfg.KeyRange; k += 3 {
		m.PutIfAbsent(scanner, k, 0)
		permanent[k] = true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func(id int, th *core.Thread) {
			defer wg.Done()
			r := rng.New(uint64(id)*977 + uint64(p) + 5)
			n := uint64(0)
			for !stop.Load() {
				k := r.Intn(cfg.KeyRange/3)*3 + 1 // residue-1 stripe only
				switch r.Intn(3) {
				case 0:
					m.PutIfAbsent(th, k, 0)
				case 1:
					m.Delete(th, k)
				default:
					m.Put(th, k, n) // overwrite (or insert): churns nodes, not keys
				}
				n++
			}
		}(i, writers[i])
	}

	r := rng.New(uint64(p) + 0xabc)
	var buf []int64
	for scan := 0; scan < 40; scan++ {
		lo := r.Intn(cfg.KeyRange / 2)
		hi := lo + r.Intn(cfg.KeyRange/2)
		buf = ScanKeys(rs, scanner, lo, hi, buf)
		checkScanShape(t, buf, lo, hi)
		seen := make(map[int64]bool, len(buf))
		for _, k := range buf {
			seen[k] = true
			switch k % 3 {
			case 2:
				t.Errorf("scan %d: key %d was never inserted", scan, k)
			}
		}
		for k := lo; k <= hi && k < cfg.KeyRange; k++ {
			if k%3 == 0 && permanent[k] && !seen[k] {
				t.Errorf("scan %d: permanently present key %d missing from [%d,%d]", scan, k, lo, hi)
			}
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, th := range append(writers, scanner) {
		th.Flush()
	}
}

// mapBatchGet exercises the ds.InOp contract: a batch of lookups inside
// one operation the test opens must agree with per-key Gets. The
// sequential half checks exact equivalence on a quiescent map (hits,
// misses, duplicate keys, unsorted order). The concurrent half gives
// each thread an owned stripe it mutates and batch-gets — owned keys
// have deterministic values even while the other stripes churn, so
// every batch slot is validated exactly. Each round's owned-key puts
// are one PutInOp batch inside one operation (several write phases in
// one operation under NBR), and every returned old value and replaced
// flag is checked against the reference.
func mapBatchGet(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, cfg.Threads)
	m := f(d)
	io := m.(ds.InOp)
	threads := make([]*core.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}

	// Sequential equivalence on a quiescent prefix of the key space.
	th := threads[0]
	r := rng.New(uint64(p)*2654435761 + 99)
	for i := int64(0); i < cfg.KeyRange; i += 2 {
		m.Put(th, i, uint64(i)*3+1)
	}
	const batch = 64
	keys := make([]int64, batch)
	vals := make([]uint64, batch)
	present := make([]bool, batch)
	for round := 0; round < 20; round++ {
		for i := range keys {
			keys[i] = r.Intn(cfg.KeyRange)
		}
		if round == 0 {
			keys[1] = keys[0] // duplicate keys must both be answered
		}
		getInOp(io, th, keys, vals, present)
		for i, k := range keys {
			wv, wok := m.Get(th, k)
			if present[i] != wok || vals[i] != wv {
				t.Fatalf("round %d: batch[%d] key %d = (%d, %v), Get = (%d, %v)",
					round, i, k, vals[i], present[i], wv, wok)
			}
		}
	}

	// Concurrent: each thread owns stripe [id*stripe, id*stripe+stripe)
	// and validates batches over it against its private reference while
	// all other stripes churn through the same structure.
	const stripe = 256
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			base := cfg.KeyRange + int64(id)*stripe // clear of the prefix above
			ref := make(map[int64]uint64, stripe)
			r := rng.New(uint64(id)*7919 + uint64(p))
			keys := make([]int64, batch)
			vals := make([]uint64, batch)
			present := make([]bool, batch)
			var pkeys []int64
			var pvals []uint64
			for n := 0; n < cfg.ConcOps/batch+1; n++ {
				// Delete a few owned keys one by one, then put a few more
				// as one in-op batch, in order (duplicates included); the
				// returned old values land in vals/present.
				pkeys, pvals = pkeys[:0], pvals[:0]
				for j := 0; j < 8; j++ {
					k := base + r.Intn(stripe)
					if r.Intn(4) == 0 {
						m.Delete(th, k)
						delete(ref, k)
					} else {
						pkeys = append(pkeys, k)
						pvals = append(pvals, uint64(id)<<32|uint64(n)<<8|uint64(j))
					}
				}
				th.StartOp()
				for j, k := range pkeys {
					vals[j], present[j] = io.PutInOp(th, k, pvals[j])
				}
				th.EndOp()
				for j, k := range pkeys {
					wv, wok := ref[k]
					if present[j] != wok || (wok && vals[j] != wv) {
						errs <- fmt.Errorf("thread %d: put batch[%d] key %d returned (%d, %v), ref = (%d, %v)",
							id, j, k, vals[j], present[j], wv, wok)
						return
					}
					ref[k] = pvals[j]
				}
				for j := range keys {
					keys[j] = base + r.Intn(stripe)
				}
				getInOp(io, th, keys, vals, present)
				for j, k := range keys {
					wv, wok := ref[k]
					if present[j] != wok || (wok && vals[j] != wv) {
						errs <- fmt.Errorf("thread %d: batch[%d] key %d = (%d, %v), ref = (%d, %v)",
							id, j, k, vals[j], present[j], wv, wok)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, th := range threads {
		th.Flush()
	}
}

// getInOp answers keys into vals/present inside one operation on th.
func getInOp(io ds.InOp, th *core.Thread, keys []int64, vals []uint64, present []bool) {
	th.StartOp()
	for i, k := range keys {
		vals[i], present[i] = io.GetInOp(th, k)
	}
	th.EndOp()
}

// rangeKVVsRef checks scanned pairs against a reference map under a
// random single-threaded history: Scan must emit exactly the
// reference's (key, value) pairs in order, and a scan that emit stops
// after limit pairs must have emitted a prefix.
func rangeKVVsRef(t *testing.T, f Factory, p core.Policy, cfg Config) {
	d := newDomain(p, 1)
	m := f(d)
	rs := m.(ds.RangeScanner)
	th := d.RegisterThread()
	ref := make(map[int64]uint64)
	r := rng.New(0x6b76 ^ uint64(p)<<8)
	var keys []int64
	var vals []uint64
	limit := 0 // pairs to collect; 0 = all
	collect := func(k int64, v uint64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return len(keys) != limit
	}

	for i := 0; i < 3000; i++ {
		k := r.Intn(cfg.KeyRange)
		switch r.Intn(4) {
		case 0:
			v := uint64(i)<<16 | uint64(k)
			m.Put(th, k, v)
			ref[k] = v
		case 1:
			m.Delete(th, k)
			delete(ref, k)
		default:
			lo := r.Intn(cfg.KeyRange)
			hi := lo + r.Intn(cfg.KeyRange/8+1)
			var want []int64
			for rk := range ref {
				if rk >= lo && rk <= hi {
					want = append(want, rk)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			keys, vals, limit = keys[:0], vals[:0], 0
			rs.Scan(th, lo, hi, collect)
			if len(keys) != len(vals) || len(keys) != len(want) {
				t.Fatalf("op %d: scan(%d,%d) -> %d/%d pairs, want %d", i, lo, hi, len(keys), len(vals), len(want))
			}
			for j := range want {
				if keys[j] != want[j] || vals[j] != ref[want[j]] {
					t.Fatalf("op %d: scan(%d,%d)[%d] = (%d,%d), want (%d,%d)",
						i, lo, hi, j, keys[j], vals[j], want[j], ref[want[j]])
				}
			}
			if len(want) > 1 {
				keys, vals, limit = keys[:0], vals[:0], 1+int(r.Intn(int64(len(want))))
				rs.Scan(th, lo, hi, collect)
				if len(keys) != limit {
					t.Fatalf("op %d: scan limited to %d pairs emitted %d, want %d", i, limit, len(keys), limit)
				}
				for j := 0; j < limit; j++ {
					if keys[j] != want[j] || vals[j] != ref[want[j]] {
						t.Fatalf("op %d: limited scan[%d] = (%d,%d), want (%d,%d)",
							i, j, keys[j], vals[j], want[j], ref[want[j]])
					}
				}
			}
		}
	}
	th.Flush()
}
