// Package store is the KV-serving front of this repository: a sharded,
// string-keyed key→value store layered on the ds.Map structures, with
// arena-backed byte-slice values, batched multi-get and multi-put, and
// value-returning scans over an ordered store. It is the layer the
// ROADMAP's north star asks for — the paper's benchmark dialect (int64
// keys, uint64 values, one protected operation per access) turned into
// a serving API (string keys, variable-size payloads, batch and
// iterator access) without changing the structures underneath.
//
// # Sharding and keys
//
// A Store is N shards (N a power of two), each an independent ds.Map.
// A string key is hashed once to 64 bits: the low bits select the shard
// and the whole hash is the int64 key stored in the shard's map
// ("string-key layer hashing to int64"). Keys are therefore identified
// by their hash: two strings colliding in all 64 bits alias one entry,
// so a Get, Put or Delete of one reads, overwrites or removes the
// other's value. With random keys that is a birthday risk (about 3e-8
// at a million keys). It is not a safeguard against a client that
// chooses its keys: hash64 is unkeyed FNV-1a plus a bijective finisher,
// so colliding keys — and keys that all land on one shard — can be
// computed offline. ROADMAP item 2 is the plan to close this (a
// per-store seed and exact key comparison).
//
// The store never retains a key. Every method that takes a key string
// (or a slice of them) reads its bytes once, to hash them, before it
// returns, and keeps only the hash. A caller may therefore pass a
// string that views a buffer it rewrites after the call (unsafe.String
// over a reused byte array): the trial harness formats each drawn
// rank's key that way. A change that stores, logs or defers a key past
// the call must copy it first, or that caller breaks.
//
// # Domain groups: reclamation fan-out bounded per shard
//
// The store is built over a core.DomainGroup rather than a single
// domain: shards map onto the group's member domains (a contiguous
// block of shards per member), and each shard's structure lives in its
// shard's member. A reclamation pass inside member m therefore pings
// and scans only m's registrants — O(readers-of-member), not O(total
// threads) — which removes the fan-out multiplier that flattens POP's
// high-thread-count curves when one domain backs every shard.
//
// Serving goroutines hold one core.GroupHandle each (Store.Acquire /
// Release, the group's lease facade); the handle leases a
// member Thread lazily on the first operation that touches that
// member's shards. The membership invariant the group's safety
// argument needs — a thread's protected operation only touches
// structures of its member domain — holds by construction here: every
// operation resolves the shard first and runs on that shard's member
// thread, and a batch visits its members one after another, one member
// operation at a time.
//
// # Values: inline words, arena handles, retirement, stale detection
//
// Values at most 7 bytes long never leave the map: the uint64 the
// shard's map stores is the payload itself, tag-encoded with the high
// bit set (bit 63, which arena.Handle reserves as zero) and the length
// in bits 56..58 — the memcached-style slab-inlining move that makes
// the hottest GETs a single protected map read with no second
// dereference, no seqlock validation, and no possibility of a stale
// retry. Inline values also have nothing to reclaim: an overwrite or
// delete of an inline value frees no value slot, and overwrites that
// flip a key between encodings free exactly the arena side (the inline
// word dies with the map cell; the arena handle frees as below).
//
// Longer values live out of line in an arena.Bytes value arena; the
// uint64 a shard's map stores is the value's arena.Handle. The store's
// one arena holds at most 2^27 live values (about 134M) per size class,
// the Handle's index width; a Put past that panics. A replaced
// value is freed by the *same core retire path as nodes*, so value
// lifetime is policy-visible: EBR holds overwritten values until the
// epoch drains, HP frees them at the next scan, NR leaks them. A value
// frees with the node whose update dropped it. On a hash-table store
// that is the map node holding it: values are immutable and an
// overwrite links a fresh node. On an ordered store it is the
// (a,b)-tree leaf whose copy-on-write left the value out, which carries
// the value's index. Either way the shard's node pool frees the arena
// slot when the policy frees that node (the freeVal hook of
// hashtable.New and abtree.New, run on the member's reclaiming thread),
// and an overwrite or delete costs no retire beyond the structure's own.
// Orphan donation and adoption stay member-local, so the per-member
// Unreclaimed bounds the robust policies guarantee are preserved under
// grouping.
//
// What makes this safe is the arena's sequence discipline, not reader
// reservations: a value read happens after the map lookup's protected
// operation has ended, so no reservation covers the payload. Instead
// Read validates the slot's sequence number around an atomic-word copy
// — a reader that lost the race to an overwrite's reclamation observes
// a deterministic "stale" verdict (never torn or recycled bytes) and
// retries through a fresh lookup. Staleness is counted per thread slot
// (Stats.StaleReads): it is the read-side cost of eager value
// reclamation, and it varies by policy exactly the way retire-to-free
// latency does.
//
// # Statistics
//
// The store follows the repository's one counting rule (ARCHITECTURE,
// § Telemetry, "The counters"): every operation counts itself in its
// own thread slot's one block of single-writer arena.Counters, a batch
// or a scan in the first member slot it touches, and Stats is a sum
// over every slot the store has built. The counts survive a slot's
// hand-over to its next tenant and are exact once the store is
// quiescent.
//
// # Elastic serving
//
// Serving pools resize mid-run: Store.Acquire / Release lease group
// slots to serving goroutines and return them, so the live worker set
// can grow and shrink inside the group's capacity. Acquire never
// blocks; a caller that can outnumber the slots bounds itself first
// (the serving front's admission semaphore). A departing worker's
// unreclaimed retires — shard nodes, with the values they dropped — are
// donated to each member domain's orphan queue and adopted by that
// member's live threads; its per-slot
// state (value-arena cache, counts, scan scratch) passes to
// the slot's next tenant through the lease's happens-before edge, per
// member.
//
// # Batched multi-get and multi-put
//
// A batch pays the per-operation costs (the StartOp/EndOp poll, an
// epoch announce) once per member domain instead of once per key:
// GetBatch hashes its keys once, groups them by member with a stable
// counting sort, and answers each member's keys in one protected
// operation it opens itself, running the shard structures' ds.InOp
// lookups inside it. With one member, the default, a batch is one
// operation. PutBatch is the write-side mirror: a member's payloads are
// encoded (inline words, or arena copies by the slot cache's Alloc)
// before its operation opens, and its upserts run inside it. Keys keep
// their batch order within a member, so a key repeated in one batch
// resolves last-wins. See store.getbatch_ns_per_key against
// store.get_ns in bench/, BenchmarkStoreGetBatch16 and
// BenchmarkStorePutBatch.
//
// # Scans
//
// A store built with Config.Ordered has (a,b)-tree shards, and Scan
// walks a hashed-key window and yields (hashed key, value copy) pairs,
// built on the tree's validated ds.RangeScanner: each chunk of at most
// scanChunk pairs is one protected scan operation on the shard's member
// thread, and each value is resolved through the same stale-detecting
// read path as Get. Any other store has hash-table shards, which are
// unordered, and Scan panics on it.
package store

import (
	"fmt"
	"math"
	"sync"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/abtree"
	"pop/internal/ds/hashtable"
	"pop/internal/padded"
)

// backing is what a shard's structure must be: a map whose lookup and
// upsert bodies also run inside an operation the store opened, so a
// batch is one protected operation per member domain.
type backing interface {
	ds.Map
	ds.InOp
}

// scanChunk bounds the pairs one protected scan operation collects, so
// a large Scan is many medium operations instead of one enormous one.
const scanChunk = 128

// Inline value encoding: a map word with inlineBit set carries the
// payload itself instead of an arena handle. arena.Handle keeps bit 63
// zero by construction (its layout is 0<<63 | seq31<<32 | class5<<27 |
// idx27), so the tag is unambiguous. Layout of an inline word:
//
//	bit  63      inlineBit
//	bits 56..58  payload length (0..InlineMaxLen)
//	bits 0..55   payload bytes, little-endian
const (
	inlineBit = uint64(1) << 63

	// InlineMaxLen is the longest payload that inline-encodes into the
	// map word (7 bytes: 56 payload bits below the length field).
	InlineMaxLen = 7
)

// inlineEncode packs val (len <= InlineMaxLen) into a tagged map word.
func inlineEncode(val []byte) uint64 {
	w := inlineBit | uint64(len(val))<<56
	for i, c := range val {
		w |= uint64(c) << (8 * i)
	}
	return w
}

// inlineDecode unpacks an inline word into buf (reusing its capacity).
func inlineDecode(w uint64, buf []byte) []byte {
	n := int(w>>56) & 7
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = byte(w >> (8 * i))
	}
	return buf
}

// MaxShards caps Config.Shards: every shard registers one node type
// with its member domain, and the domain type tables are finite.
const MaxShards = 32

// Config tunes a Store. The zero value is usable.
type Config struct {
	// Shards is the shard count, rounded up to a power of two
	// (default 8, max MaxShards). Must be >= the group's member count:
	// members partition the shards into contiguous blocks.
	Shards int
	// Ordered selects the per-shard structure: true builds (a,b)-tree
	// shards, which Scan needs; false (the default) builds hash-table
	// shards, the faster structure for every other operation.
	Ordered bool
	// ExpectedKeysPerShard sizes hash-table shards at one key per
	// bucket, rounded up to a power of two (default 1<<17: 2^17 buckets
	// of one word each, 1 MiB per shard).
	ExpectedKeysPerShard int64
	// MaxValueLen caps Put payloads (default and hard cap
	// arena.MaxValueLen).
	MaxValueLen int
}

// Layout resolves a shard count and a member-domain count the way a
// Store lays them out: shards default to 8 and members to 1, both round
// up to powers of two, and members are capped at shards (members
// partition the shards into contiguous blocks). More than MaxShards
// shards is an error.
func Layout(shards, members int) (int, int, error) {
	if shards <= 0 {
		shards = 8
	}
	if shards > MaxShards {
		return 0, 0, fmt.Errorf("store: %d shards exceeds MaxShards (%d)", shards, MaxShards)
	}
	shards, members = pow2(shards), pow2(members)
	return shards, min(members, shards), nil
}

// pow2 rounds n up to a power of two (1 for n <= 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c Config) withDefaults() (Config, error) {
	var err error
	if c.Shards, _, err = Layout(c.Shards, 1); err != nil {
		return c, err
	}
	if c.ExpectedKeysPerShard <= 0 {
		c.ExpectedKeysPerShard = 1 << 17
	}
	if c.MaxValueLen <= 0 || c.MaxValueLen > arena.MaxValueLen {
		c.MaxValueLen = arena.MaxValueLen
	}
	return c, nil
}

// shard is one partition: its map, and its scanner on an ordered store.
type shard struct {
	m       backing
	scanner ds.RangeScanner // nil unless Config.Ordered
}

// counts is one thread slot's counts, written only by the slot's tenant
// (see Statistics in the package comment).
type counts struct {
	gets       arena.Counter // single-key lookups (GetBatch keys included)
	misses     arena.Counter // lookups that found no entry
	puts       arena.Counter // upserts (inserts + overwrites; PutBatch keys included)
	overwrites arena.Counter // upserts that replaced a value
	deletes    arena.Counter // deletes that removed a value
	stale      arena.Counter // value reads that lost to reclamation and retried
	scanPairs  arena.Counter // pairs yielded by scans
	batches    arena.Counter // GetBatch calls
	putBatches arena.Counter // PutBatch calls
	scans      arena.Counter // Scan calls
}

// storeLocal is one member-domain thread slot's state: its value-arena
// cache, its counts, and reusable scratch for scans. It is a core.Local
// of the member domain, so when a serving goroutine releases its group
// handle and another goroutine re-leases the slot (the elastic-pool
// lifecycle), the state transfers with it: the member domain's
// lease/release mutex is the happens-before edge, and the new tenant
// simply continues filling the previous tenant's caches.
type storeLocal struct {
	vc *arena.BytesCache

	_      [padded.CacheLine]byte // counts share no line with another slot's
	counts counts
	_      [padded.CacheLine]byte

	// scan scratch (owner-only)
	keys    []int64
	vals    []uint64
	collect func(key int64, val uint64) bool // appends; stops at scanChunk pairs
}

// Store is a sharded string-key KV store. All methods are safe for
// concurrent use by group handles leased from the store's domain
// group; as everywhere in this repository, a handle must only be used
// by the goroutine that acquired it.
type Store struct {
	g           *core.DomainGroup
	cfg         Config
	mask        uint64
	memberShift uint // shard >> memberShift = member domain index
	shards      []shard
	vals        *arena.Bytes
	locals      []core.Local[storeLocal] // per member

	mu    sync.Mutex
	slots []*storeLocal // every slot state built, for Stats
}

// New creates a store over domain group g. The group's member domains
// partition the shards: shard i lives in member i >> log2(shards /
// members), so a group of 1 is the classic single-domain store and a
// group of Shards gives every shard a private reclamation domain. The
// member count must not exceed the shard count.
func New(g *core.DomainGroup, cfg Config) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	groups := g.Members()
	if groups > cfg.Shards {
		return nil, fmt.Errorf("store: %d member domains exceed %d shards (need members <= shards)", groups, cfg.Shards)
	}
	shift := uint(0)
	for 1<<shift < cfg.Shards/groups {
		shift++
	}
	s := &Store{
		g:           g,
		cfg:         cfg,
		mask:        uint64(cfg.Shards - 1),
		memberShift: shift,
		shards:      make([]shard, cfg.Shards),
		vals:        arena.NewBytes(),
		locals:      make([]core.Local[storeLocal], groups),
	}
	frees := make([]func(*core.Thread, uint64), groups)
	for m := 0; m < groups; m++ {
		d := g.Member(m)
		s.locals[m] = core.NewLocal(d, s.newLocal)
		// A value frees with the node that dropped it, on the member's
		// reclaiming thread, into that member's slot state.
		frees[m] = func(t *core.Thread, w uint64) { s.locals[m].Of(t).free(w) }
	}
	for i := range s.shards {
		d, free := g.Member(i>>shift), frees[i>>shift]
		var m backing
		if cfg.Ordered {
			m = abtree.New(d, free)
		} else {
			m = hashtable.New(d, cfg.ExpectedKeysPerShard, 1, free)
		}
		s.shards[i].m = m
		s.shards[i].scanner, _ = m.(ds.RangeScanner)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Group returns the store's domain group: the lease facade serving
// layers acquire handles from, and the aggregation point for
// reclamation, lifecycle and fan-out statistics.
func (s *Store) Group() *core.DomainGroup { return s.g }

// MemberIndex returns the member domain shard belongs to.
func (s *Store) MemberIndex(shard int) int { return shard >> s.memberShift }

// Acquire leases a serving handle from the store's group without
// blocking: when every slot is leased it fails with an error wrapping
// core.ErrNoSlots. The handle belongs to the calling goroutine until
// Release.
func (s *Store) Acquire() (*core.GroupHandle, error) { return s.g.Acquire() }

// Release returns a serving handle to the group; the worker's
// unreclaimed retires (nodes, with the values they dropped) are donated
// to each member domain for adoption, and the slot becomes re-leasable.
func (s *Store) Release(h *core.GroupHandle) { s.g.Release(h) }

// Ordered reports whether the store was built with Config.Ordered and
// so supports hashed-key Scan.
func (s *Store) Ordered() bool { return s.cfg.Ordered }

// newLocal builds a member thread slot's state on its first use and
// registers it for Stats.
func (s *Store) newLocal(*core.Thread) *storeLocal {
	tl := &storeLocal{vc: s.vals.NewCache()}
	tl.collect = func(k int64, v uint64) bool {
		tl.keys = append(tl.keys, k)
		tl.vals = append(tl.vals, v)
		return len(tl.keys) < scanChunk
	}
	s.mu.Lock()
	s.slots = append(s.slots, tl)
	s.mu.Unlock()
	return tl
}

// free returns an arena word's value slot to tl's cache; an inline word
// owns nothing.
func (tl *storeLocal) free(w uint64) {
	if w&inlineBit == 0 {
		tl.vc.Free(arena.Handle(w))
	}
}

// encode makes val's map word: the payload itself when it fits inline,
// else the handle of a fresh arena slot from tl's cache.
func (tl *storeLocal) encode(val []byte) uint64 {
	if len(val) <= InlineMaxLen {
		return inlineEncode(val)
	}
	return uint64(tl.vc.Alloc(val))
}

// checkLen panics on a payload longer than Config.MaxValueLen.
func (s *Store) checkLen(val []byte) {
	if len(val) > s.cfg.MaxValueLen {
		panic(fmt.Sprintf("store: value of %d bytes exceeds MaxValueLen %d", len(val), s.cfg.MaxValueLen))
	}
}

// KeyHash returns the int64 the store files key under — the identity
// the hashed-key Scan reports and the key value payloads are checked
// against in the harness.
func KeyHash(key string) int64 { return ikeyOf(hash64(key)) }

// ShardIndex returns the shard key routes to — the partition a serving
// layer's per-shard machinery (e.g. the server's per-shard get handle)
// must serve it on.
func (s *Store) ShardIndex(key string) int { return int(hash64(key) & s.mask) }

// MaxValueLen returns the store's configured payload cap.
func (s *Store) MaxValueLen() int { return s.cfg.MaxValueLen }

// hash64 is FNV-1a over the key bytes with a SplitMix finisher for
// avalanche (FNV alone is weak in the low bits the shard mask reads).
func hash64(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ikeyOf folds a hash into the sentinel-free int64 key domain.
func ikeyOf(h uint64) int64 {
	k := int64(h)
	if k == math.MinInt64 {
		return k + 1
	}
	if k == math.MaxInt64 {
		return k - 1
	}
	return k
}

// locate resolves key to its shard index and in-shard key.
func (s *Store) locate(key string) (int, int64) {
	h := hash64(key)
	return int(h & s.mask), ikeyOf(h)
}

// threadFor resolves the handle's thread for shard index si, leasing
// the member thread on first touch.
func (s *Store) threadFor(h *core.GroupHandle, si int) *core.Thread {
	return h.Member(si >> s.memberShift)
}

// slot resolves shard si on handle h to its member thread (leased on
// first touch) and that thread slot's state.
func (s *Store) slot(h *core.GroupHandle, si int) (*core.Thread, *storeLocal) {
	m := si >> s.memberShift
	t := h.Member(m)
	return t, s.locals[m].Of(t)
}

// readWord resolves a map word to value bytes: an inline word decodes
// from the word itself (always succeeds — the payload travels with the
// map cell), an arena word goes through the stale-detecting arena read.
func (s *Store) readWord(w uint64, buf []byte) ([]byte, bool) {
	if w&inlineBit != 0 {
		return inlineDecode(w, buf), true
	}
	return s.vals.Read(arena.Handle(w), buf)
}

// Get copies key's value into buf (growing it as needed) and returns
// the filled slice. ok=false means the key is absent. Inline values
// decode straight from the map word; an arena lookup whose value slot
// was reclaimed between the protected map read and the arena read is
// detected by the arena's sequence check and retried with a fresh
// lookup — Get never returns torn or recycled bytes.
func (s *Store) Get(h *core.GroupHandle, key string, buf []byte) ([]byte, bool) {
	si, ik := s.locate(key)
	sh := &s.shards[si]
	t, tl := s.slot(h, si)
	c := &tl.counts
	c.gets.Add(1)
	w, ok := sh.m.Get(t, ik)
	if !ok {
		c.misses.Add(1)
		return buf[:0], false
	}
	if v, ok := s.readWord(w, buf); ok {
		return v, true
	}
	v, ok := s.reread(sh, t, c, ik, buf)
	if !ok {
		c.misses.Add(1)
	}
	return v, ok
}

// reread serves key ik of shard sh after a read of its value lost to
// the value's reclamation: it counts the stale read, looks the key up
// again in a fresh protected operation and reads the value it finds,
// until a read succeeds or the key is gone (ok=false). Every read path
// calls it only after a first readWord fails, so a hit pays nothing.
func (s *Store) reread(sh *shard, t *core.Thread, c *counts, ik int64, buf []byte) ([]byte, bool) {
	for {
		c.stale.Add(1)
		w, ok := sh.m.Get(t, ik)
		if !ok {
			return buf[:0], false
		}
		if v, ok := s.readWord(w, buf); ok {
			return v, true
		}
	}
}

// Put upserts key to a private copy of val (len(val) bounded by
// Config.MaxValueLen; it panics beyond it, like the ds layer's key
// checks). Values of at most InlineMaxLen bytes inline-encode into the
// map word; longer ones take an arena slot. A replaced arena value frees
// with the node the shard's map retired for the overwrite, when the
// policy in the shard's member domain frees that node; a replaced
// inline value dies with the map cell.
func (s *Store) Put(h *core.GroupHandle, key string, val []byte) {
	s.checkLen(val)
	si, ik := s.locate(key)
	t, tl := s.slot(h, si)
	_, replaced := s.shards[si].m.Put(t, ik, tl.encode(val))
	tl.counts.puts.Add(1)
	if replaced {
		tl.counts.overwrites.Add(1)
	}
}

// PutIfAbsent maps key to a copy of val only if key is absent and
// reports whether it did.
func (s *Store) PutIfAbsent(h *core.GroupHandle, key string, val []byte) bool {
	s.checkLen(val)
	si, ik := s.locate(key)
	t, tl := s.slot(h, si)
	w := tl.encode(val)
	if s.shards[si].m.PutIfAbsent(t, ik, w) {
		tl.counts.puts.Add(1)
		return true
	}
	tl.free(w) // never published: no grace period needed
	return false
}

// Delete removes key, its value (if arena-backed) freeing with the node
// the shard's map retired, and reports whether it was present.
func (s *Store) Delete(h *core.GroupHandle, key string) bool {
	si, ik := s.locate(key)
	t, tl := s.slot(h, si)
	_, ok := s.shards[si].m.Delete(t, ik)
	if ok {
		tl.counts.deletes.Add(1)
	}
	return ok
}

// Scan visits the (hashed key, value) pairs with hashed key in
// [lo, hi], shard by shard and ascending within each shard, until fn
// returns false; it returns the number of pairs visited. Each chunk of
// at most scanChunk pairs is one protected scan operation (the
// tree's Scan, stopped by the slot's collect) on the shard's member
// thread, so a store-wide scan is a sequence of member-local operations
// — the membership invariant holds chunk by chunk — and the fan-out of
// any reclaimer the scan provokes stays per-member. Each value resolves
// through the stale-detecting read path: a pair whose value was
// reclaimed mid-scan is re-fetched from the map (it may have a newer
// value by then) or skipped if deleted. The val slice passed to fn is
// reused across calls — copy it to keep it.
//
// Scan requires an ordered store (Config.Ordered); it panics otherwise.
func (s *Store) Scan(h *core.GroupHandle, lo, hi int64, fn func(hkey int64, val []byte) bool) int {
	if !s.Ordered() {
		panic("store: Scan on a store built without Config.Ordered")
	}
	var vbuf []byte
	visited := 0
	for i := range s.shards {
		sh := &s.shards[i]
		t, tl := s.slot(h, i)
		c := &tl.counts
		if i == 0 {
			c.scans.Add(1)
		}
		from := lo
		for from <= hi {
			tl.keys, tl.vals = tl.keys[:0], tl.vals[:0]
			sh.scanner.Scan(t, from, hi, tl.collect)
			for j, k := range tl.keys {
				v, ok := s.readWord(tl.vals[j], vbuf)
				if !ok {
					// Lost to reclamation since the scan: serve the key's
					// current value, or skip it if it was deleted since.
					if v, ok = s.reread(sh, t, c, k, vbuf); !ok {
						continue
					}
				}
				vbuf = v[:0]
				visited++
				c.scanPairs.Add(1)
				if !fn(k, v) {
					return visited
				}
			}
			if len(tl.keys) < scanChunk {
				break // shard window exhausted
			}
			last := tl.keys[len(tl.keys)-1]
			if last >= hi {
				break
			}
			from = last + 1
		}
	}
	return visited
}

// Batch holds one batched operation's results and reusable scratch.
// After GetBatch, Vals[i] and OK[i] answer keys[i]; Vals slices point
// into an internal buffer that the next batched call with this Batch
// overwrites. After PutBatch, OK[i] reports whether keys[i] replaced a
// previous value. One Batch may be reused across a GetBatch → modify →
// PutBatch read-modify-write cycle: the scratch is recomputed per call
// while the allocations persist.
type Batch struct {
	Vals [][]byte
	OK   []bool

	hks   []uint64 // hash per key
	order []int    // key indices grouped by member, batch order within
	words []uint64 // map word per key: found by GetBatch, put by PutBatch
	buf   []byte   // GetBatch's value bytes
}

// byMember hashes keys into b.hks once, groups their indices into
// b.order by member domain with a stable counting sort, and calls fn
// once per member the batch touches, with the handle's thread in that
// member, the thread slot's state, the member's key indices in batch
// order, and whether this is the batch's first member (whose slot
// counts the batch). fn opens at most one operation, so the handle is
// mid-operation in at most one member at a time.
func (s *Store) byMember(h *core.GroupHandle, keys []string, b *Batch, fn func(t *core.Thread, tl *storeLocal, idx []int, first bool)) {
	n := len(keys)
	b.hks = resize(b.hks, n)
	b.order = resize(b.order, n)
	var next [MaxShards + 1]int // member m's next position in b.order
	for i, k := range keys {
		b.hks[i] = hash64(k)
		next[s.memberOf(b.hks[i])+1]++
	}
	for m := range s.locals {
		next[m+1] += next[m]
	}
	for i, hk := range b.hks {
		m := s.memberOf(hk)
		b.order[next[m]] = i
		next[m]++
	}
	lo := 0 // next[m] is now member m's end
	for m := range s.locals {
		if hi := next[m]; hi > lo {
			t := h.Member(m)
			fn(t, s.locals[m].Of(t), b.order[lo:hi], lo == 0)
			lo = hi
		}
	}
}

// memberOf returns the member domain a key hash routes to.
func (s *Store) memberOf(hk uint64) int { return int(hk&s.mask) >> s.memberShift }

// GetBatch answers every keys[i] into b.Vals[i]/b.OK[i]. Each member's
// keys are looked up in one protected operation — the entry/exit
// amortization that makes a batch cheaper than its Gets — and their
// values resolve after it through the same stale-detecting path as Get.
// Results are positional: input order is preserved.
func (s *Store) GetBatch(h *core.GroupHandle, keys []string, b *Batch) {
	b.Vals = resize(b.Vals, len(keys))
	b.OK = resize(b.OK, len(keys))
	b.words = resize(b.words, len(keys))
	b.buf = b.buf[:0]
	s.byMember(h, keys, b, func(t *core.Thread, tl *storeLocal, idx []int, first bool) {
		c := &tl.counts
		if first {
			c.batches.Add(1)
		}
		t.StartOp()
		for _, i := range idx {
			hk := b.hks[i]
			b.words[i], b.OK[i] = s.shards[hk&s.mask].m.GetInOp(t, ikeyOf(hk))
		}
		t.EndOp()
		for _, i := range idx {
			si := int(b.hks[i] & s.mask)
			c.gets.Add(1)
			off := len(b.buf)
			var v []byte
			ok := b.OK[i]
			if ok {
				if v, ok = s.readWord(b.words[i], b.buf[off:]); !ok {
					v, ok = s.reread(&s.shards[si], t, c, ikeyOf(b.hks[i]), b.buf[off:])
				}
			}
			if !ok {
				c.misses.Add(1)
				b.Vals[i], b.OK[i] = nil, false
				continue
			}
			// v fills buf's spare capacity unless the read had to grow it;
			// append handles both. A value cut before a later append grows
			// buf keeps the old array, which nothing writes again. Its
			// capacity ends with it, so a caller's append to one value
			// (a read-modify-write's modify step) cannot overwrite the next.
			b.buf = append(b.buf[:off], v...)
			b.Vals[i], b.OK[i] = b.buf[off:len(b.buf):len(b.buf)], true
		}
	})
}

// PutBatch upserts every keys[i] to a private copy of vals[i], the
// write-side mirror of GetBatch: each member's payloads are encoded
// (inline words, or arena copies by the slot cache's Alloc, which locks
// a size class once per refill of 64 slots) before its one protected
// operation opens, and its upserts (ds.InOp) run inside it, each
// replaced value freeing with the node its upsert retired. b.OK[i]
// reports whether keys[i] replaced a previous value. A key repeated in
// one batch resolves last-wins. vals may alias b.Vals from a preceding
// GetBatch: PutBatch never writes the bytes they point into.
func (s *Store) PutBatch(h *core.GroupHandle, keys []string, vals [][]byte, b *Batch) {
	if len(vals) != len(keys) {
		panic(fmt.Sprintf("store: PutBatch with %d keys but %d values", len(keys), len(vals)))
	}
	for _, v := range vals {
		s.checkLen(v)
	}
	b.OK = resize(b.OK, len(keys))
	b.words = resize(b.words, len(keys))
	s.byMember(h, keys, b, func(t *core.Thread, tl *storeLocal, idx []int, first bool) {
		c := &tl.counts
		if first {
			c.putBatches.Add(1)
		}
		for _, i := range idx {
			b.words[i] = tl.encode(vals[i])
		}
		t.StartOp()
		for _, i := range idx {
			hk := b.hks[i]
			_, b.OK[i] = s.shards[hk&s.mask].m.PutInOp(t, ikeyOf(hk), b.words[i])
		}
		t.EndOp()
		for _, i := range idx {
			c.puts.Add(1)
			if b.OK[i] {
				c.overwrites.Add(1)
			}
		}
	})
}

// resize returns s with length n, reallocating only when capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Size counts the store's keys (quiescent use only).
func (s *Store) Size(h *core.GroupHandle) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].m.Size(s.threadFor(h, i))
	}
	return n
}

// Outstanding reports live+retired occupancy across every pool the
// store owns: shard nodes and value slots.
func (s *Store) Outstanding() int64 {
	n := s.vals.Outstanding()
	for i := range s.shards {
		n += s.shards[i].m.Outstanding()
	}
	return n
}

// Stats is a snapshot of store counters, summed over thread slots.
type Stats struct {
	Gets       uint64 // lookups (batch keys included)
	GetMisses  uint64 // lookups finding no entry
	Puts       uint64 // upserts (batch keys included)
	Overwrites uint64 // upserts that replaced a value
	Deletes    uint64 // deletes that removed a value
	Batches    uint64 // GetBatch calls (with at least one key)
	PutBatches uint64 // PutBatch calls (with at least one key)
	Scans      uint64 // Scan calls
	ScanPairs  uint64 // pairs yielded by scans
	StaleReads uint64 // value reads that lost to reclamation and retried

	Values arena.Stats // value-arena counters
}

// Stats sums every thread slot's counts. Exact once the store is
// quiescent; mid-run each field is monotone, but fields are not read at
// one instant.
func (s *Store) Stats() Stats {
	var out Stats
	s.mu.Lock()
	for _, tl := range s.slots {
		c := &tl.counts
		out.Gets += c.gets.Load()
		out.GetMisses += c.misses.Load()
		out.Puts += c.puts.Load()
		out.Overwrites += c.overwrites.Load()
		out.Deletes += c.deletes.Load()
		out.Batches += c.batches.Load()
		out.PutBatches += c.putBatches.Load()
		out.Scans += c.scans.Load()
		out.ScanPairs += c.scanPairs.Load()
		out.StaleReads += c.stale.Load()
	}
	s.mu.Unlock()
	out.Values = s.vals.Stats()
	return out
}
