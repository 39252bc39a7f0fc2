// Package store is the KV-serving front of this repository: a sharded,
// string-keyed key→value store layered on the ds.Map structures, with
// arena-backed byte-slice values, batched multi-get and multi-put, and
// value-returning scans over ordered backings. It is the layer the
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
// by their hash — two strings colliding in all 64 bits alias one entry,
// a once-per-two-billion-billion event accepted by this layer's serving
// semantics. Shard statistics are cache-line padded so per-shard
// counters never false-share.
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
// delete of an inline value retires nothing, and overwrites that flip
// a key between encodings retire exactly the arena side (the inline
// word dies with the map cell; the arena handle goes through the
// ticket path below).
//
// Longer values live out of line in an arena.Bytes value arena; the
// uint64 a shard's map stores is the value's arena.Handle. An overwrite or
// delete retires the replaced handle through the *same core retire
// path as nodes* — a small ticket node carrying the handle flows
// through Thread.Retire in the shard's member domain, and the policy's
// reclamation pass frees the payload slot when it frees the ticket —
// so value lifetime is policy-visible: EBR holds overwritten values
// until the epoch drains, HP frees them at the next scan, NR leaks
// them. Orphan donation and adoption stay member-local, so the
// per-member Unreclaimed bounds the robust policies guarantee are
// preserved under grouping.
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
// # Elastic serving
//
// Serving pools resize mid-run: Store.Acquire / AcquireWait / Release
// lease group slots to serving goroutines and return them, so the live
// worker set can grow and shrink inside the group's capacity. A
// departing worker's unreclaimed retires — shard nodes and value
// tickets alike — are donated to each member domain's orphan queue and
// adopted by that member's live threads; its tid-keyed caches (value
// arena, tickets, scan scratch) transfer to the slot's next tenant
// through the lease's happens-before edge, per member.
//
// # Batched multi-get and multi-put
//
// GetBatch sorts the batch by (shard, hashed key) and answers each
// shard's group in one protected operation via ds.BatchGetter (one
// StartOp/EndOp per shard per batch instead of per key), falling back
// to per-key Gets on backings without batch support. PutBatch is the
// write-side mirror (ds.BatchPutter): the same counting sort, one
// protected operation per shard group, one arena reservation pass per
// group (arena.BytesCache.AllocBatch), and replaced values retired in
// bulk on the group's member thread. A read-modify-write batch reuses
// one Batch's scratch across the GetBatch → modify → PutBatch cycle.
// Sorted keys also give tree descents warm upper-level paths. See
// store.getbatch_ns_per_key against store.get_ns in bench/, and
// BenchmarkStorePutBatch.
//
// # Scans
//
// On ordered backings (skl, abt) Scan walks a hashed-key window and
// yields (hashed key, value copy) pairs, built on the validated
// RangeCollectKV scans: each chunk of pairs is one protected scan
// operation on the shard's member thread, and each value is resolved
// through the same stale-detecting read path as Get.
package store

import (
	"context"
	"fmt"
	"math"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/abtree"
	"pop/internal/ds/extbst"
	"pop/internal/ds/hashtable"
	"pop/internal/ds/hmlist"
	"pop/internal/ds/lazylist"
	"pop/internal/ds/skiplist"
	"pop/internal/padded"
)

// Backing names accepted by Config.Backing (the harness's DS names).
const (
	BackingSkipList          = "skl"  // lock-free skiplist: ordered, batch-capable (default)
	BackingHashTable         = "hmht" // hash table: shortest lookups, batch-capable
	BackingHarrisMichaelList = "hml"  // Harris-Michael list: batch-capable
	BackingABTree            = "abt"  // (a,b)-tree: ordered
	BackingLazyList          = "ll"   // lazy list
	BackingExternalBST       = "dgt"  // external BST
)

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
// with its member domain (plus one per member for value tickets), and
// the domain type tables are finite.
const MaxShards = 32

// Config tunes a Store. The zero value is usable.
type Config struct {
	// Shards is the shard count, rounded up to a power of two
	// (default 8, max MaxShards). Must be >= the group's member count:
	// members partition the shards into contiguous blocks.
	Shards int
	// Backing selects the per-shard structure (Backing* constants;
	// default BackingSkipList).
	Backing string
	// ExpectedKeysPerShard sizes hash-table shards (default 1<<15).
	ExpectedKeysPerShard int64
	// MaxValueLen caps Put payloads (default and hard cap
	// arena.MaxValueLen).
	MaxValueLen int
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > MaxShards {
		return c, fmt.Errorf("store: %d shards exceeds MaxShards (%d)", c.Shards, MaxShards)
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.Backing == "" {
		c.Backing = BackingSkipList
	}
	if c.ExpectedKeysPerShard <= 0 {
		c.ExpectedKeysPerShard = 1 << 15
	}
	if c.MaxValueLen <= 0 || c.MaxValueLen > arena.MaxValueLen {
		c.MaxValueLen = arena.MaxValueLen
	}
	switch c.Backing {
	case BackingSkipList, BackingHashTable, BackingHarrisMichaelList,
		BackingABTree, BackingLazyList, BackingExternalBST:
	default:
		return c, fmt.Errorf("store: unknown backing %q", c.Backing)
	}
	return c, nil
}

// shard is one partition: its map plus padded counters. The counters
// are atomic (several threads serve one shard) but each shard's block
// is padded, so shard i's stats never false-share with shard j's.
type shard struct {
	m        ds.MemMap
	scanner  ds.RangeScanner // nil when the backing is unordered
	batch    ds.BatchGetter  // nil when the backing has no multi-get
	batchPut ds.BatchPutter  // nil when the backing has no multi-put

	gets       padded.Uint64 // single-key lookups (GetBatch keys included)
	misses     padded.Uint64 // lookups that found no entry
	puts       padded.Uint64 // upserts (inserts + overwrites; PutBatch keys included)
	overwrites padded.Uint64 // upserts that replaced (and retired) a value
	deletes    padded.Uint64 // deletes that removed (and retired) a value
	stale      padded.Uint64 // value reads that lost to reclamation and retried
	scanPairs  padded.Uint64 // pairs yielded by scans
}

// vticket is the retire ticket that routes a value's reclamation
// through the core retire path. Header must be first (the reclamation
// contract); h is the arena handle to free when the policy frees the
// ticket.
type vticket struct {
	core.Header
	h arena.Handle
}

// storeLocal is one member-domain thread slot's allocation state: its
// value-arena cache, its ticket cache, and reusable scratch for
// batches and scans. State is keyed by (member, thread ID) — the
// member's slot index — so when a serving goroutine releases its group
// handle and another goroutine re-leases the slot (the elastic-pool
// lifecycle), the caches transfer with it: the member domain's
// lease/release mutex is the happens-before edge, and the new tenant
// simply continues filling the previous tenant's caches.
type storeLocal struct {
	vc      *arena.BytesCache
	tickets *arena.ThreadCache[vticket]

	// scan scratch (owner-only)
	keys []int64
	vals []uint64
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
	tickets     *arena.Pool[vticket]
	ticketTyps  []uint8         // per-member ticket type ids
	locals      [][]*storeLocal // [member][thread id (slot)], owner-only

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
		shards:      make([]shard, cfg.Shards),
		vals:        arena.NewBytes(),
		tickets:     arena.NewPool[vticket](nil, nil),
		ticketTyps:  make([]uint8, groups),
		locals:      make([][]*storeLocal, groups),
	}
	for m := 0; m < groups; m++ {
		m := m
		d := g.Member(m)
		s.locals[m] = make([]*storeLocal, d.MaxThreads())
		// One ticket type per member: the free function runs on the
		// member's reclaiming thread and must resolve that member's
		// tid-keyed caches.
		s.ticketTyps[m] = d.RegisterType(func(t *core.Thread, h *core.Header) {
			tk := (*vticket)(unsafe.Pointer(h))
			tl := s.localFor(m, t)
			tl.vc.Free(tk.h) // the payload slot frees with its ticket
			tl.tickets.Put(tk)
		})
	}
	for i := range s.shards {
		d := g.Member(i >> shift)
		var m ds.MemMap
		switch cfg.Backing {
		case BackingSkipList:
			m = skiplist.New(d)
		case BackingHashTable:
			m = hashtable.New(d, cfg.ExpectedKeysPerShard, 6)
		case BackingHarrisMichaelList:
			m = hmlist.New(d)
		case BackingABTree:
			m = abtree.New(d)
		case BackingLazyList:
			m = lazylist.New(d)
		case BackingExternalBST:
			m = extbst.New(d)
		}
		s.shards[i].m = m
		s.shards[i].scanner, _ = m.(ds.RangeScanner)
		s.shards[i].batch, _ = m.(ds.BatchGetter)
		s.shards[i].batchPut, _ = m.(ds.BatchPutter)
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

// Acquire leases a serving handle from the store's group. The handle
// belongs to the calling goroutine until Release.
func (s *Store) Acquire() (*core.GroupHandle, error) { return s.g.Acquire() }

// AcquireWait leases a serving handle, queueing (FIFO) while the group
// is saturated — the admission-control path; see
// core.DomainGroup.AcquireWait.
func (s *Store) AcquireWait(ctx context.Context) (*core.GroupHandle, error) {
	return s.g.AcquireWait(ctx)
}

// Release returns a serving handle to the group; the worker's
// unreclaimed retires (nodes and value tickets) are donated to each
// member domain for adoption, and the slot becomes re-leasable.
func (s *Store) Release(h *core.GroupHandle) { s.g.Release(h) }

// Ordered reports whether the backing supports hashed-key Scan.
func (s *Store) Ordered() bool { return s.shards[0].scanner != nil }

// localFor returns t's thread-local state in member m, creating it on
// first use.
func (s *Store) localFor(m int, t *core.Thread) *storeLocal {
	tl := s.locals[m][t.ID()]
	if tl == nil {
		tl = &storeLocal{vc: s.vals.NewCache(), tickets: s.tickets.NewCache()}
		s.locals[m][t.ID()] = tl
	}
	return tl
}

// KeyHash returns the int64 the store files key under — the identity
// the hashed-key Scan reports and the key value payloads are checked
// against in the harness.
func KeyHash(key string) int64 { return ikeyOf(hash64(key)) }

// ShardIndex returns the shard key routes to — the partition a serving
// layer's per-shard machinery (e.g. a get-coalescing window) must queue
// it on.
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
	t := s.threadFor(h, si)
	sh.gets.Add(1)
	for {
		hv, ok := sh.m.Get(t, ik)
		if !ok {
			sh.misses.Add(1)
			return buf[:0], false
		}
		if v, ok := s.readWord(hv, buf); ok {
			return v, true
		}
		sh.stale.Add(1) // lost to an overwrite's reclamation: retry
	}
}

// Contains reports whether key is present, without touching its value.
func (s *Store) Contains(h *core.GroupHandle, key string) bool {
	si, ik := s.locate(key)
	_, ok := s.shards[si].m.Get(s.threadFor(h, si), ik)
	return ok
}

// Put upserts key to a private copy of val (len(val) bounded by
// Config.MaxValueLen; it panics beyond it, like the ds layer's key
// checks). Values of at most InlineMaxLen bytes inline-encode into the
// map word; longer ones take an arena slot. A replaced arena value is
// retired through the core retire path in the shard's member domain
// and freed by the policy; a replaced inline value dies with the map
// cell.
func (s *Store) Put(h *core.GroupHandle, key string, val []byte) {
	if len(val) > s.cfg.MaxValueLen {
		panic(fmt.Sprintf("store: value of %d bytes exceeds MaxValueLen %d", len(val), s.cfg.MaxValueLen))
	}
	si, ik := s.locate(key)
	m := si >> s.memberShift
	t := h.Member(m)
	var nw uint64
	if len(val) <= InlineMaxLen {
		nw = inlineEncode(val)
	} else {
		nw = uint64(s.localFor(m, t).vc.Alloc(val))
	}
	sh := &s.shards[si]
	old, replaced := sh.m.Put(t, ik, nw)
	sh.puts.Add(1)
	if replaced {
		sh.overwrites.Add(1)
		s.retireWord(t, m, old)
	}
}

// PutIfAbsent maps key to a copy of val only if key is absent and
// reports whether it did.
func (s *Store) PutIfAbsent(h *core.GroupHandle, key string, val []byte) bool {
	if len(val) > s.cfg.MaxValueLen {
		panic(fmt.Sprintf("store: value of %d bytes exceeds MaxValueLen %d", len(val), s.cfg.MaxValueLen))
	}
	si, ik := s.locate(key)
	m := si >> s.memberShift
	t := h.Member(m)
	sh := &s.shards[si]
	if len(val) <= InlineMaxLen {
		if sh.m.PutIfAbsent(t, ik, inlineEncode(val)) {
			sh.puts.Add(1)
			return true
		}
		return false
	}
	tl := s.localFor(m, t)
	nh := tl.vc.Alloc(val)
	if sh.m.PutIfAbsent(t, ik, uint64(nh)) {
		sh.puts.Add(1)
		return true
	}
	tl.vc.Free(nh) // never published: no grace period needed
	return false
}

// Delete removes key, retiring its value (if arena-backed), and
// reports whether it was present.
func (s *Store) Delete(h *core.GroupHandle, key string) bool {
	si, ik := s.locate(key)
	m := si >> s.memberShift
	t := h.Member(m)
	sh := &s.shards[si]
	old, ok := sh.m.Delete(t, ik)
	if ok {
		sh.deletes.Add(1)
		s.retireWord(t, m, old)
	}
	return ok
}

// retireWord retires whatever a replaced map word owned: nothing for
// an inline word (the payload lived in the cell the map just
// replaced), the arena slot for a handle word. This is the single
// point where encoding-flipping overwrites converge — inline-replaces-
// arena retires the arena side here, arena-replaces-inline retires
// nothing, and the policy never sees a ticket for memory that was
// never allocated.
func (s *Store) retireWord(t *core.Thread, m int, w uint64) {
	if w&inlineBit != 0 {
		return
	}
	s.retireValue(t, m, arena.Handle(w))
}

// retireValue hands a replaced value handle to the reclamation layer of
// member m on thread t (which must be m's member thread): the ticket is
// a managed node, so the handle's slot frees exactly when m's policy
// decides the retired generation is safe — value retirement is
// policy-visible, like node retirement, and member-local, like every
// other retire.
func (s *Store) retireValue(t *core.Thread, m int, h arena.Handle) {
	tl := s.localFor(m, t)
	tk := tl.tickets.Get()
	tk.h = h
	t.OnAlloc(&tk.Header, s.ticketTyps[m])
	t.Retire(&tk.Header)
}

// Scan visits the (hashed key, value) pairs with hashed key in
// [lo, hi], shard by shard and ascending within each shard, until fn
// returns false; it returns the number of pairs visited. Each chunk of
// at most scanChunk pairs is one protected scan operation
// (RangeCollectKV on the backing) on the shard's member thread, so a
// store-wide scan is a sequence of member-local operations — the
// membership invariant holds chunk by chunk — and the fan-out of any
// reclaimer the scan provokes stays per-member. Each value resolves
// through the stale-detecting read path: a pair whose value was
// reclaimed mid-scan is re-fetched from the map (it may have a newer
// value by then) or skipped if deleted. The val slice passed to fn is
// reused across calls — copy it to keep it.
//
// Scan requires an ordered backing (Ordered); it panics otherwise.
func (s *Store) Scan(h *core.GroupHandle, lo, hi int64, fn func(hkey int64, val []byte) bool) int {
	if !s.Ordered() {
		panic(fmt.Sprintf("store: Scan on unordered backing %q", s.cfg.Backing))
	}
	s.scans.Add(1)
	var vbuf []byte
	visited := 0
	for i := range s.shards {
		sh := &s.shards[i]
		m := i >> s.memberShift
		t := h.Member(m)
		tl := s.localFor(m, t)
		from := lo
		for from <= hi {
			tl.keys, tl.vals = sh.scanner.RangeCollectKV(t, from, hi, scanChunk, tl.keys, tl.vals)
			for j, k := range tl.keys {
				v, ok := s.readWord(tl.vals[j], vbuf)
				for !ok {
					// The pair's value lost to reclamation between the scan
					// and this read: serve the key's current value instead.
					sh.stale.Add(1)
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
				sh.scanPairs.Add(1)
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
	golds []uint64       // PutBatch: replaced handles per group
	gbuf  [][]byte       // PutBatch: group's value payloads
	ghs   []arena.Handle // PutBatch: group's fresh arena handles
	offs  []int          // value offsets into buf (per key; -1 = miss)
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
// one protected operation on batch-capable backings — the entry/exit
// amortization that makes a 64-key batch measurably cheaper than 64
// Gets — with values resolved through the same stale-detecting path as
// Get. Groups run sequentially on each shard's member thread, so the
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
		t := s.threadFor(h, si)
		b.ikeys = resize(b.ikeys, len(group))
		b.gvals = resize(b.gvals, len(group))
		b.gok = resize(b.gok, len(group))
		for j, idx := range group {
			b.ikeys[j] = ikeyOf(b.hks[idx])
		}
		sh.gets.Add(uint64(len(group)))
		if sh.batch != nil {
			// One protected operation for the whole group.
			sh.batch.GetBatch(t, b.ikeys, b.gvals, b.gok)
		} else {
			for j, ik := range b.ikeys {
				b.gvals[j], b.gok[j] = sh.m.Get(t, ik)
			}
		}
		// Resolve values. The buffer may grow (and move) while we append,
		// so record offsets now and slice at the end.
		for j, idx := range group {
			if !b.gok[j] {
				sh.misses.Add(1)
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
				sh.stale.Add(1)
				nhv, present := sh.m.Get(t, b.ikeys[j])
				if !present {
					sh.misses.Add(1)
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
// arena in one reservation pass (AllocBatch — the class free
// lists are locked at most once per group instead of per refill); the
// group's upserts run in one protected operation on batch-capable
// backings (ds.BatchPutter); and the replaced handles retire in bulk
// on the shard's member thread. b.OK[i] reports whether keys[i]
// replaced a previous value. A read-modify-write batch can reuse the
// same Batch from the preceding GetBatch — payload slices passed in
// vals may even alias b.Vals, because every payload is copied into the
// arena before any map mutation touches the batch scratch.
func (s *Store) PutBatch(h *core.GroupHandle, keys []string, vals [][]byte, b *Batch) {
	n := len(keys)
	if len(vals) != n {
		panic(fmt.Sprintf("store: PutBatch with %d keys but %d values", n, len(vals)))
	}
	for _, v := range vals {
		if len(v) > s.cfg.MaxValueLen {
			panic(fmt.Sprintf("store: value of %d bytes exceeds MaxValueLen %d", len(v), s.cfg.MaxValueLen))
		}
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
		m := si >> s.memberShift
		t := h.Member(m)
		tl := s.localFor(m, t)
		b.ikeys = resize(b.ikeys, len(group))
		b.gvals = resize(b.gvals, len(group))
		b.golds = resize(b.golds, len(group))
		b.gok = resize(b.gok, len(group))
		b.gbuf = resize(b.gbuf, len(group))
		b.ghs = resize(b.ghs, len(group))
		// Inline-eligible payloads encode straight into their map words;
		// only the rest join the arena reservation pass.
		na := 0
		for j, idx := range group {
			b.ikeys[j] = ikeyOf(b.hks[idx])
			v := vals[idx]
			if len(v) <= InlineMaxLen {
				b.gvals[j] = inlineEncode(v)
			} else {
				b.gbuf[na] = v
				na++
			}
		}
		if na > 0 {
			// One arena reservation pass for the group's long payloads.
			tl.vc.AllocBatch(b.gbuf[:na], b.ghs[:na])
			k := 0
			for j, idx := range group {
				if len(vals[idx]) > InlineMaxLen {
					b.gvals[j] = uint64(b.ghs[k])
					k++
				}
			}
		}
		sh.puts.Add(uint64(len(group)))
		if sh.batchPut != nil {
			// One protected operation for the whole group.
			sh.batchPut.PutBatch(t, b.ikeys, b.gvals, b.golds, b.gok)
		} else {
			for j, ik := range b.ikeys {
				b.golds[j], b.gok[j] = sh.m.Put(t, ik, b.gvals[j])
			}
		}
		for j, idx := range group {
			b.OK[idx] = b.gok[j]
			if b.gok[j] {
				sh.overwrites.Add(1)
				s.retireWord(t, m, b.golds[j])
			}
		}
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
		if sized, ok := s.shards[i].m.(ds.Sized); ok {
			n += sized.Size(s.threadFor(h, i))
		}
	}
	return n
}

// Outstanding reports live+retired occupancy across every pool the
// store owns: shard nodes, value slots, and retire tickets.
func (s *Store) Outstanding() int64 {
	n := s.vals.Outstanding() + s.tickets.Outstanding()
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
	Overwrites uint64 // upserts that replaced (and retired) a value
	Deletes    uint64 // deletes that removed (and retired) a value
	Batches    uint64 // GetBatch calls
	PutBatches uint64 // PutBatch calls
	Scans      uint64 // Scan calls
	ScanPairs  uint64 // pairs yielded by scans
	StaleReads uint64 // value reads that lost to reclamation and retried

	Values arena.BytesStats // value-arena counters
}

// Stats aggregates the per-shard counters.
func (s *Store) Stats() Stats {
	var out Stats
	for i := range s.shards {
		sh := &s.shards[i]
		out.Gets += sh.gets.Load()
		out.GetMisses += sh.misses.Load()
		out.Puts += sh.puts.Load()
		out.Overwrites += sh.overwrites.Load()
		out.Deletes += sh.deletes.Load()
		out.ScanPairs += sh.scanPairs.Load()
		out.StaleReads += sh.stale.Load()
	}
	out.Batches = s.batches.Load()
	out.PutBatches = s.putBatches.Load()
	out.Scans = s.scans.Load()
	out.Values = s.vals.Stats()
	return out
}
