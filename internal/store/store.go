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
// thread, and the batched operations visit shards sequentially, one
// member operation at a time.
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
// uint64 a shard's map stores is the value's arena.Handle. A replaced
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
// retries through a fresh lookup. Staleness is counted per shard
// (Stats.StaleReads): it is the read-side cost of eager value
// reclamation, and it varies by policy exactly the way retire-to-free
// latency does.
//
// # Statistics
//
// Every operation counts itself (Stats) in its own thread slot's state,
// one block of counts per shard of the slot's member, each count a
// single-writer arena.Counter: a Get pays no read-modify-write on a line
// another serving thread writes. Stats sums over every slot the store
// has built, so the counts survive a slot's hand-over to its next
// tenant and are exact once the store is quiescent.
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
// GetBatch sorts the batch by (shard, hashed key) and answers each
// shard's group in one protected operation it opens itself, running the
// shard structure's ds.InOp lookup per key (one StartOp/EndOp per shard
// per batch instead of per key); both structures have the in-op seam,
// so there is one batch path. PutBatch is the write-side mirror: the same
// counting sort, one protected operation per shard group (long payloads
// are copied into the arena before it opens, each by the slot cache's
// Alloc, whose refills lock a size class once per 64 slots); replaced
// values free with the nodes the group's upserts retired. A
// read-modify-write batch reuses one Batch's scratch across the
// GetBatch → modify → PutBatch cycle.
// Sorted keys also give tree descents warm upper-level paths. See
// store.getbatch_ns_per_key against store.get_ns in bench/, and
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
// batch is one protected operation per shard group.
type backing interface {
	ds.Map
	ds.InOp
}

// scanChunk bounds the pairs one protected scan operation collects, so
// a large Scan is many medium operations instead of one enormous one.
const scanChunk = 128

// Inline value encoding: a map word with inlineBit set carries the
// payload itself instead of an arena handle. arena.Handle keeps bit 63
// zero by construction (its layout is 0<<63 | seq31<<32 | class4<<28 |
// idx28), so the tag is unambiguous. Layout of an inline word:
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

// shardCounts is one thread slot's counts for one shard, written only by
// the slot's tenant (see Statistics in the package comment).
type shardCounts struct {
	gets       arena.Counter // single-key lookups (GetBatch keys included)
	misses     arena.Counter // lookups that found no entry
	puts       arena.Counter // upserts (inserts + overwrites; PutBatch keys included)
	overwrites arena.Counter // upserts that replaced a value
	deletes    arena.Counter // deletes that removed a value
	stale      arena.Counter // value reads that lost to reclamation and retried
	scanPairs  arena.Counter // pairs yielded by scans
	_          uint64        // one 64-byte line per shard
}

// countsPad is the number of shardCounts (64 bytes each) either side of
// a slot's counts: a padded.CacheLine that no other heap object shares.
const countsPad = padded.CacheLine / 64

// storeLocal is one member-domain thread slot's state: its value-arena
// cache, its counts for its member's shards, and reusable scratch for
// scans. It is a core.Local
// of the member domain, so when a serving goroutine releases its group
// handle and another goroutine re-leases the slot (the elastic-pool
// lifecycle), the state transfers with it: the member domain's
// lease/release mutex is the happens-before edge, and the new tenant
// simply continues filling the previous tenant's caches.
type storeLocal struct {
	vc     *arena.BytesCache
	counts []shardCounts // indexed by shard & Store.shardMask

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
	shardMask   int  // shard & shardMask = index among its member's shards
	shards      []shard
	vals        *arena.Bytes
	locals      []core.Local[storeLocal] // per member

	mu    sync.Mutex
	slots []*storeLocal // every slot state built, for Stats

	batches    padded.Uint64 // GetBatch calls
	putBatches padded.Uint64 // PutBatch calls
	scans      padded.Uint64 // Scan calls
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
		shardMask:   1<<shift - 1,
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
	n := s.shardMask + 1
	tl := &storeLocal{
		vc:     s.vals.NewCache(),
		counts: make([]shardCounts, n+2*countsPad)[countsPad : countsPad+n],
	}
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

// countsOf returns tl's counts for shard si.
func (s *Store) countsOf(tl *storeLocal, si int) *shardCounts {
	return &tl.counts[si&s.shardMask]
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
	c := s.countsOf(tl, si)
	c.gets.Add(1)
	for {
		hv, ok := sh.m.Get(t, ik)
		if !ok {
			c.misses.Add(1)
			return buf[:0], false
		}
		if v, ok := s.readWord(hv, buf); ok {
			return v, true
		}
		c.stale.Add(1) // lost to an overwrite's reclamation: retry
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
	c := s.countsOf(tl, si)
	c.puts.Add(1)
	if replaced {
		c.overwrites.Add(1)
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
		s.countsOf(tl, si).puts.Add(1)
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
		s.countsOf(tl, si).deletes.Add(1)
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
	s.scans.Add(1)
	var vbuf []byte
	visited := 0
	for i := range s.shards {
		sh := &s.shards[i]
		t, tl := s.slot(h, i)
		c := s.countsOf(tl, i)
		from := lo
		for from <= hi {
			tl.keys, tl.vals = tl.keys[:0], tl.vals[:0]
			sh.scanner.Scan(t, from, hi, tl.collect)
			for j, k := range tl.keys {
				v, ok := s.readWord(tl.vals[j], vbuf)
				for !ok {
					// The pair's value lost to reclamation between the scan
					// and this read: serve the key's current value instead.
					c.stale.Add(1)
					hv, present := sh.m.Get(t, k)
					if !present {
						break // deleted since the scan observed it: skip
					}
					v, ok = s.readWord(hv, vbuf)
				}
				if !ok {
					continue
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
// into an internal buffer that is overwritten by the next batched call
// with this Batch. After PutBatch, OK[i] reports whether keys[i]
// replaced (and retired) a previous value. One Batch may be reused
// across a GetBatch → modify → PutBatch read-modify-write cycle: the
// grouping scratch (hashes, shard order) is simply recomputed per call
// while the allocations persist.
type Batch struct {
	Vals [][]byte
	OK   []bool

	hks   []uint64 // hash per key
	order []int    // key indices grouped by shard, ascending key within
	cnt   []int    // per-shard bucket counts/offsets
	ikeys []int64  // per-group scratch
	gvals []uint64
	gok   []bool
	offs  []int // value offsets into buf (per key; -1 = miss)
	lens  []int
	buf   []byte
}

// groupByShard fills b.order with 0..n-1 bucketed by shard (one
// counting-sort pass — comparison sorting here would cost more than the
// batching saves) and ascending by in-shard key within each bucket
// (insertion sort; buckets are small).
func (b *Batch) groupByShard(n, shards int, mask uint64) {
	b.cnt = resize(b.cnt, shards+1)
	for i := range b.cnt {
		b.cnt[i] = 0
	}
	for _, h := range b.hks[:n] {
		b.cnt[int(h&mask)+1]++
	}
	for s := 1; s <= shards; s++ {
		b.cnt[s] += b.cnt[s-1]
	}
	starts := b.cnt // after the scatter, cnt[s] is bucket s's end
	for i := 0; i < n; i++ {
		s := int(b.hks[i] & mask)
		b.order[starts[s]] = i
		starts[s]++
	}
	// starts[s] now holds bucket s's end; bucket s begins at starts[s-1]
	// (0 for s=0). Order each bucket by in-shard key.
	lo := 0
	for s := 0; s < shards; s++ {
		hi := starts[s]
		for i := lo + 1; i < hi; i++ {
			idx := b.order[i]
			k := ikeyOf(b.hks[idx])
			j := i
			for j > lo && ikeyOf(b.hks[b.order[j-1]]) > k {
				b.order[j] = b.order[j-1]
				j--
			}
			b.order[j] = idx
		}
		lo = hi
	}
}

// GetBatch answers every keys[i] into b.Vals[i]/b.OK[i]. The batch is
// sorted by (shard, hashed key) and each shard's group is answered in
// one protected operation — the entry/exit amortization that makes a
// 64-key batch measurably cheaper than 64 Gets — with values resolved
// through the same stale-detecting path as Get. Groups run sequentially on each shard's member thread, so the
// handle is mid-operation in at most one member at a time. Results are
// positional: input order is preserved.
func (s *Store) GetBatch(h *core.GroupHandle, keys []string, b *Batch) {
	n := len(keys)
	s.batches.Add(1)
	b.Vals = resize(b.Vals, n)
	b.OK = resize(b.OK, n)
	b.hks = resize(b.hks, n)
	b.order = resize(b.order, n)
	b.offs = resize(b.offs, n)
	b.lens = resize(b.lens, n)
	b.buf = b.buf[:0]
	for i, k := range keys {
		b.hks[i] = hash64(k)
	}
	b.groupByShard(n, len(s.shards), s.mask)

	for g := 0; g < n; {
		si := int(b.hks[b.order[g]] & s.mask)
		sh := &s.shards[si]
		e := g + 1
		for e < n && int(b.hks[b.order[e]]&s.mask) == si {
			e++
		}
		group := b.order[g:e]
		t, tl := s.slot(h, si)
		c := s.countsOf(tl, si)
		b.ikeys = resize(b.ikeys, len(group))
		b.gvals = resize(b.gvals, len(group))
		b.gok = resize(b.gok, len(group))
		for j, idx := range group {
			b.ikeys[j] = ikeyOf(b.hks[idx])
		}
		c.gets.Add(uint64(len(group)))
		// One protected operation for the whole group.
		t.StartOp()
		for j, ik := range b.ikeys {
			b.gvals[j], b.gok[j] = sh.m.GetInOp(t, ik)
		}
		t.EndOp()
		// Resolve values. The buffer may grow (and move) while we append,
		// so record offsets now and slice at the end.
		for j, idx := range group {
			if !b.gok[j] {
				c.misses.Add(1)
				b.offs[idx] = -1
				continue
			}
			hv := b.gvals[j]
			for {
				off := len(b.buf)
				v, ok := s.readWord(hv, b.buf[off:])
				if ok {
					// v aliases buf's spare capacity unless Read had to
					// grow; append handles both (and keeps offsets valid —
					// slices are cut from the final buffer below).
					b.buf = append(b.buf[:off], v...)
					b.offs[idx], b.lens[idx] = off, len(v)
					break
				}
				// Stale: the batch's handle lost to reclamation. Re-serve
				// this key through a fresh protected lookup.
				c.stale.Add(1)
				nhv, present := sh.m.Get(t, b.ikeys[j])
				if !present {
					c.misses.Add(1)
					b.offs[idx] = -1
					break
				}
				hv = nhv
			}
		}
		g = e
	}
	for i := 0; i < n; i++ {
		if b.offs[i] < 0 {
			b.Vals[i], b.OK[i] = nil, false
		} else {
			b.Vals[i], b.OK[i] = b.buf[b.offs[i]:b.offs[i]+b.lens[i]], true
		}
	}
}

// PutBatch upserts every keys[i] to a private copy of vals[i], the
// write-side mirror of GetBatch: the batch is counting-sorted by
// (shard, hashed key); each shard group's inline-eligible payloads
// encode into their map words and the rest are copied into the value
// arena (the slot cache's Alloc, which locks a size class once per
// refill of 64 slots); and the group's upserts run in one protected
// operation (ds.InOp), each replaced value freeing with the node its
// upsert retired. b.OK[i] reports whether keys[i] replaced a
// previous value. A read-modify-write batch can reuse the
// same Batch from the preceding GetBatch — payload slices passed in
// vals may even alias b.Vals, because every payload is copied into the
// arena before any map mutation touches the batch scratch.
func (s *Store) PutBatch(h *core.GroupHandle, keys []string, vals [][]byte, b *Batch) {
	n := len(keys)
	if len(vals) != n {
		panic(fmt.Sprintf("store: PutBatch with %d keys but %d values", n, len(vals)))
	}
	for _, v := range vals {
		s.checkLen(v)
	}
	s.putBatches.Add(1)
	b.OK = resize(b.OK, n)
	b.hks = resize(b.hks, n)
	b.order = resize(b.order, n)
	for i, k := range keys {
		b.hks[i] = hash64(k)
	}
	b.groupByShard(n, len(s.shards), s.mask)

	for g := 0; g < n; {
		si := int(b.hks[b.order[g]] & s.mask)
		sh := &s.shards[si]
		e := g + 1
		for e < n && int(b.hks[b.order[e]]&s.mask) == si {
			e++
		}
		group := b.order[g:e]
		t, tl := s.slot(h, si)
		c := s.countsOf(tl, si)
		b.ikeys = resize(b.ikeys, len(group))
		b.gvals = resize(b.gvals, len(group))
		// Inline-eligible payloads encode straight into their map words;
		// the rest are copied into the arena.
		for j, idx := range group {
			b.ikeys[j] = ikeyOf(b.hks[idx])
			b.gvals[j] = tl.encode(vals[idx])
		}
		c.puts.Add(uint64(len(group)))
		// One protected operation for the whole group.
		overwrites := 0
		t.StartOp()
		for j, idx := range group {
			_, b.OK[idx] = sh.m.PutInOp(t, b.ikeys[j], b.gvals[j])
			if b.OK[idx] {
				overwrites++
			}
		}
		t.EndOp()
		c.overwrites.Add(uint64(overwrites))
		g = e
	}
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

// Stats is a snapshot of store counters, aggregated across shards.
type Stats struct {
	Gets       uint64 // lookups (batch keys included)
	GetMisses  uint64 // lookups finding no entry
	Puts       uint64 // upserts (batch keys included)
	Overwrites uint64 // upserts that replaced a value
	Deletes    uint64 // deletes that removed a value
	Batches    uint64 // GetBatch calls
	PutBatches uint64 // PutBatch calls
	Scans      uint64 // Scan calls
	ScanPairs  uint64 // pairs yielded by scans
	StaleReads uint64 // value reads that lost to reclamation and retried

	Values arena.BytesStats // value-arena counters
}

// Stats sums every thread slot's counts. Exact once the store is
// quiescent; mid-run each field is monotone, but fields are not read at
// one instant.
func (s *Store) Stats() Stats {
	var out Stats
	s.mu.Lock()
	for _, tl := range s.slots {
		for i := range tl.counts {
			c := &tl.counts[i]
			out.Gets += c.gets.Load()
			out.GetMisses += c.misses.Load()
			out.Puts += c.puts.Load()
			out.Overwrites += c.overwrites.Load()
			out.Deletes += c.deletes.Load()
			out.ScanPairs += c.scanPairs.Load()
			out.StaleReads += c.stale.Load()
		}
	}
	s.mu.Unlock()
	out.Batches = s.batches.Load()
	out.PutBatches = s.putBatches.Load()
	out.Scans = s.scans.Load()
	out.Values = s.vals.Stats()
	return out
}
