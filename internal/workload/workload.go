// Package workload defines the operation mixes and key distributions of
// the paper's evaluation (§5.0.2): uniformly random keys over a fixed
// range, chosen operation percentages, and the two standard mixes —
// read-heavy (90% contains, 5% insert, 5% delete) and update-heavy
// (50% insert, 50% delete) — plus the long-running-reads asymmetric
// workload of §5.1.2 and, beyond the paper, two extension dimensions:
//
//   - a range-query dimension (RangePct/RangeSpan) with a scan-heavy mix
//     that stresses reservation publication with long ordered scans
//     (requires a ds.RangeScanner);
//   - a key→value dimension (OverwritePct, the KVStore mix) for the map
//     contract: Contains doubles as Get, Insert as Put-if-absent, and
//     Overwrite is an upsert Put that replaces a present key's value —
//     on the lock-free structures that is a replace-node-and-retire, so
//     overwrite share directly dials retirement pressure without
//     changing the key population.
//
// Value payloads are derived from the key stream and are checksum-
// verifiable: EncodeValue packs a write tag with a checksum over
// (key, tag), and ValueValid rejects any value that was not produced by
// EncodeValue for that key. A torn, stale or cross-key value — the
// value-plane symptom of a use-after-free — fails verification, so the
// harness can assert correctness while benchmarking.
//
// Generators are built with NewGeneratorErr wherever a configuration
// comes from user input (harness configs, popbench flags); the
// panicking NewGenerator remains only as a convenience for tests.
//
// Beyond the paper's uniform draws, keys can follow a scrambled
// Zipfian distribution (Dist/Sampler; s≈0.99, the YCSB shape for
// skewed serving traffic). The store layer's dialect also lives here:
// StoreMix/StoreOp (get/put/mget/scan/delete), KeyString (canonical
// string keys), and byte-payload analogues of the checksummed values
// (AppendValueBytes/ValueBytesValid) so the harness can verify every
// served byte slice the way it verifies every served uint64.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"pop/internal/padded"
	"pop/internal/rng"
)

// Op is a data-structure operation kind.
type Op uint8

// Operation kinds. The map-facing names Get and Put alias Contains and
// Insert: the harness issues Get/PutIfAbsent for them against the map
// contract, which preserves set semantics exactly (an insert never
// disturbs a present key's value).
const (
	Contains Op = iota
	Insert
	Delete
	// RangeQuery is an ordered scan over [key, key+span): one long
	// operation whose reservations stay live across every hop. Only
	// meaningful against structures implementing ds.RangeScanner.
	RangeQuery
	// Overwrite is an upsert Put: it installs a fresh value whether or
	// not the key is present. On a present key the structures either
	// replace the node (hmlist, skiplist, abtree leaves) or store in
	// place under a lock (lazylist, extbst) — see each package's
	// overwrite-strategy doc.
	Overwrite
)

// Map-contract aliases for the KV naming of the same operations.
const (
	Get = Contains
	Put = Insert
)

// NumOps is the number of Op kinds: arrays indexed by Op (the harness's
// per-class counters and histograms) have this length.
const NumOps = int(Overwrite) + 1

// opNames are the reporting names, in the KV naming.
var opNames = [NumOps]string{Contains: "get", Insert: "put", Delete: "delete", RangeQuery: "scan", Overwrite: "overwrite"}

// String returns the op's reporting name (get, put, delete, scan,
// overwrite).
func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mix is an operation mixture in percent. Fields must sum to 100.
type Mix struct {
	ContainsPct  int
	InsertPct    int
	DeletePct    int
	RangePct     int
	OverwritePct int
}

// The standard mixes: the paper's two, plus the scan-heavy mix that
// exercises the range-query dimension and the KV-serving mix that
// exercises the value dimension.
var (
	// ReadHeavy is 90% contains / 5% insert / 5% delete.
	ReadHeavy = Mix{ContainsPct: 90, InsertPct: 5, DeletePct: 5}
	// UpdateHeavy is 50% insert / 50% delete.
	UpdateHeavy = Mix{ContainsPct: 0, InsertPct: 50, DeletePct: 50}
	// ScanHeavy is 50% range queries / 40% contains / 5% insert /
	// 5% delete: most time is spent inside long scans while updates
	// churn the structure underneath them.
	ScanHeavy = Mix{ContainsPct: 40, InsertPct: 5, DeletePct: 5, RangePct: 50}
	// KVStore is the KV-serving mix: 70% get / 10% put / 15% overwrite /
	// 5% delete. Reads dominate (cache-style serving), but the overwrite
	// share keeps a steady stream of value replacements — and therefore
	// retirements on the replace-node structures — flowing through a
	// mostly stable key population.
	KVStore = Mix{ContainsPct: 70, InsertPct: 10, DeletePct: 5, OverwritePct: 15}
)

// Share returns op's percentage of the mix (0 for an unknown op).
func (m Mix) Share(op Op) int {
	switch op {
	case Contains:
		return m.ContainsPct
	case Insert:
		return m.InsertPct
	case Delete:
		return m.DeletePct
	case RangeQuery:
		return m.RangePct
	case Overwrite:
		return m.OverwritePct
	}
	return 0
}

// Valid reports whether the mix sums to 100 with no negatives.
func (m Mix) Valid() bool {
	return m.ContainsPct >= 0 && m.InsertPct >= 0 && m.DeletePct >= 0 &&
		m.RangePct >= 0 && m.OverwritePct >= 0 &&
		m.ContainsPct+m.InsertPct+m.DeletePct+m.RangePct+m.OverwritePct == 100
}

// DefaultRangeSpan is the scan width used when a mix draws range
// queries and the caller did not choose one.
const DefaultRangeSpan = 100

// Churn is the worker-turnover knob for elastic serving experiments:
// with AfterOps set, a harness worker releases its thread handle after
// that many operations — donating its unreclaimed retire list to the
// domain's orphan queue — and a fresh goroutine re-leases a slot and
// continues the measurement. Churn dials thread-lifecycle pressure the
// way OverwritePct dials retirement pressure: the op stream is
// unchanged; only how long each thread identity lives varies.
type Churn struct {
	// AfterOps is the number of operations one worker incarnation
	// performs before releasing its handle and respawning (0 = no
	// churn: workers keep one handle for the whole run).
	AfterOps uint64
}

// Enabled reports whether the knob is set.
func (c Churn) Enabled() bool { return c.AfterOps > 0 }

// EncodeValue packs a verifiable value for key: the write tag in the
// upper half, a checksum over (key, tag) in the lower. Distinct tags
// yield distinct values for the same key, so overwrite streams are
// last-writer-wins distinguishable while staying verifiable.
func EncodeValue(key int64, tag uint32) uint64 {
	return uint64(tag)<<32 | uint64(checksum32(key, tag))
}

// ValueValid reports whether v is a value EncodeValue could have
// produced for key. A value read from the wrong node, a torn value, or
// bytes from a recycled node fail this check with probability
// 1 - 2^-32.
func ValueValid(key int64, v uint64) bool {
	return uint32(v) == checksum32(key, uint32(v>>32))
}

// checksum32 mixes key and tag through a SplitMix-style finisher.
func checksum32(key int64, tag uint32) uint32 {
	x := uint64(key)*0x9e3779b97f4a7c15 + uint64(tag)*0xff51afd7ed558ccd + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// Dist selects a key distribution.
type Dist uint8

// The key distributions: uniform over [0, keyRange) (the paper's
// §5.0.2 methodology), scrambled Zipfian (YCSB-style, skew s≈0.99),
// the standard model for skewed serving traffic — a few hot keys absorb
// most operations while the tail stays warm — and Latest (YCSB
// workload D): reads favour the most recently inserted keys, with the
// insert frontier advancing as writers call NextInsert.
const (
	Uniform Dist = iota
	Zipf
	Latest
)

// DefaultZipfS is the Zipfian skew used when none is chosen — YCSB's
// 0.99, under which the hottest of 10^6 keys draws ~7% of traffic.
const DefaultZipfS = 0.99

// ParseDist resolves a distribution name ("uniform", "zipf",
// "latest").
func ParseDist(s string) (Dist, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "zipf":
		return Zipf, nil
	case "latest":
		return Latest, nil
	}
	return 0, fmt.Errorf("workload: unknown key distribution %q (want uniform, zipf or latest)", s)
}

// String returns the distribution's flag name.
func (d Dist) String() string {
	switch d {
	case Zipf:
		return "zipf"
	case Latest:
		return "latest"
	}
	return "uniform"
}

// Sampler draws keys in [0, n) under a distribution. Not safe for
// concurrent use; create one per thread. A Sampler is whole
// padded.CacheLine units (so is its rng.State), so two workers'
// samplers never share a line that either writes per draw.
type Sampler struct {
	sampler
	_ [padded.CacheLine - unsafe.Sizeof(sampler{})%padded.CacheLine]byte
}

type sampler struct {
	r        *rng.State
	n        int64
	z        *zipfState // nil for Uniform
	latest   bool
	frontier int64 // Latest only: next rank NextInsert hands out
}

// NewSampler creates a key sampler. skew is the Zipfian s parameter
// (<= 0 means DefaultZipfS); it is ignored for Uniform.
//
// For Latest, ranks model insertion order: the frontier starts at n/2
// (matching the harness's half-population prefill) and advances on
// NextInsert; Next draws a Zipfian recency offset behind it, so reads
// chase the most recently inserted keys. The frontier is per-sampler —
// a deliberate simplification of YCSB's shared insert counter that
// keeps samplers contention- and coordination-free.
func NewSampler(seed uint64, n int64, dist Dist, skew float64) (*Sampler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive key range %d", n)
	}
	s := &Sampler{sampler: sampler{r: rng.New(seed), n: n}}
	if dist == Zipf || dist == Latest {
		if skew <= 0 {
			skew = DefaultZipfS
		}
		if skew >= 1 {
			return nil, fmt.Errorf("workload: zipf skew %v out of range (0, 1)", skew)
		}
		s.z = newZipfState(n, skew)
		if dist == Latest {
			s.latest = true
			s.frontier = n / 2
		}
	}
	return s, nil
}

// Next draws the next key. Zipfian ranks are scrambled through a
// Fibonacci mix so the hot keys are spread across the key space (and
// therefore across store shards) instead of clustering at 0, the
// YCSB ScrambledZipfian behaviour. Latest ranks are not scrambled:
// recency order is the point, so the draw lands a Zipfian offset
// behind the insert frontier (rank frontier-1 is the hottest).
func (s *Sampler) Next() int64 {
	if s.z == nil {
		return s.r.Intn(s.n)
	}
	rank := s.z.next(s.r)
	if s.latest {
		k := s.frontier - 1 - rank
		for k < 0 {
			k += s.n
		}
		return k
	}
	x := uint64(rank) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int64(x % uint64(s.n))
}

// NextInsert draws the key for an insert/put. Under Latest it returns
// the frontier rank and advances it (wrapping at n, so long runs
// recycle the oldest keys); under Uniform/Zipf it is exactly Next(),
// keeping the draw stream of existing workloads unchanged.
func (s *Sampler) NextInsert() int64 {
	if !s.latest {
		return s.Next()
	}
	k := s.frontier
	s.frontier++
	if s.frontier >= s.n {
		s.frontier = 0
	}
	return k
}

// zipfState is the YCSB-style Zipfian generator (Gray et al.'s
// "Quickly generating billion-record synthetic databases" method): one
// O(n) zeta computation at construction, then O(1) per draw.
type zipfState struct {
	n          int64
	zetan      float64
	alpha, eta float64
	rank1      float64 // 1 + 0.5^theta: a draw u·zetan below it is rank 1
}

func newZipfState(n int64, theta float64) *zipfState {
	z := &zipfState{n: n, rank1: 1 + math.Pow(0.5, theta)}
	zeta2 := 0.0
	for i := int64(1); i <= n; i++ {
		v := 1 / math.Pow(float64(i), theta)
		z.zetan += v
		if i == 2 {
			zeta2 = z.zetan
		}
		if n < 2 {
			zeta2 = z.zetan
		}
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// next draws a rank in [0, n), rank 0 being the hottest.
func (z *zipfState) next(r *rng.State) int64 {
	u := float64(r.Uint64()>>11) / (1 << 53) // uniform in [0, 1)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	rank := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// Generator draws (operation, key) pairs for one worker thread. Not safe
// for concurrent use; create one per thread. Value writes its tag on
// every call, so a Generator is whole padded.CacheLine units: two
// workers' generators never share a line.
type Generator struct {
	generator
	_ [padded.CacheLine - unsafe.Sizeof(generator{})%padded.CacheLine]byte
}

type generator struct {
	r         *rng.State
	seed      uint64 // construction seed (SetDist derives from it)
	keys      *Sampler
	mix       Mix
	keyRange  int64
	rangeSpan int64
	vtag      uint32
}

// NewGeneratorErr creates a generator over [0, keyRange) with the given
// mix, reporting invalid configurations as errors (so harness-level
// validation can surface them instead of crashing a sweep).
func NewGeneratorErr(seed uint64, mix Mix, keyRange int64) (*Generator, error) {
	if !mix.Valid() {
		return nil, fmt.Errorf("workload: mix %+v does not sum to 100", mix)
	}
	if keyRange <= 0 {
		return nil, fmt.Errorf("workload: non-positive key range %d", keyRange)
	}
	keys, err := NewSampler(seed^0x6b65795f73747265, keyRange, Uniform, 0)
	if err != nil {
		return nil, err
	}
	return &Generator{generator: generator{
		r: rng.New(seed), seed: seed, keys: keys, mix: mix, keyRange: keyRange,
		rangeSpan: DefaultRangeSpan, vtag: uint32(seed),
	}}, nil
}

// SetDist switches the generator's key distribution (default Uniform).
// skew is the Zipfian s (<= 0 means DefaultZipfS). The op mix and the
// key stream use independent random streams seeded from the stored
// construction seed — SetDist never draws from the op-mix stream — so
// two same-seed runs differing only in distribution execute the exact
// same operation sequence over different keys.
func (g *Generator) SetDist(dist Dist, skew float64) error {
	keys, err := NewSampler(g.seed^0x64697374_7a697066, g.keyRange, dist, skew)
	if err != nil {
		return err
	}
	g.keys = keys
	return nil
}

// NewGenerator creates a generator over [0, keyRange) with the given
// mix. It panics on invalid input; use NewGeneratorErr to get an error
// instead.
func NewGenerator(seed uint64, mix Mix, keyRange int64) *Generator {
	g, err := NewGeneratorErr(seed, mix, keyRange)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// SetRangeSpan overrides the scan width drawn for RangeQuery operations
// (default DefaultRangeSpan). span must be positive.
func (g *Generator) SetRangeSpan(span int64) {
	if span <= 0 {
		panic("workload: non-positive range span")
	}
	g.rangeSpan = span
}

// RangeSpan returns the scan width for RangeQuery operations.
func (g *Generator) RangeSpan() int64 { return g.rangeSpan }

// Next returns the next operation and key. For RangeQuery the key is the
// scan's lower bound; the upper bound is key+RangeSpan()-1.
func (g *Generator) Next() (Op, int64) {
	k := g.keys.Next()
	p := g.r.Pct()
	switch {
	case p < g.mix.ContainsPct:
		return Contains, k
	case p < g.mix.ContainsPct+g.mix.InsertPct:
		return Insert, k
	case p < g.mix.ContainsPct+g.mix.InsertPct+g.mix.DeletePct:
		return Delete, k
	case p < g.mix.ContainsPct+g.mix.InsertPct+g.mix.DeletePct+g.mix.OverwritePct:
		return Overwrite, k
	default:
		return RangeQuery, k
	}
}

// Value returns the next verifiable value payload for key: a fresh tag
// from the generator's private counter, encoded with EncodeValue.
func (g *Generator) Value(key int64) uint64 {
	g.vtag++
	return EncodeValue(key, g.vtag)
}

// Key returns a key in [0, keyRange) under the generator's distribution
// (prefill use).
func (g *Generator) Key() int64 { return g.keys.Next() }

// ---------------------------------------------------------------------
// Store-workload dialect: string keys, byte values, serving mixes.
// ---------------------------------------------------------------------

// StoreOp is a store-level operation kind (string keys, byte values).
type StoreOp uint8

// The store operation kinds.
const (
	// StoreGet serves one key's value.
	StoreGet StoreOp = iota
	// StorePut upserts one key with a fresh payload.
	StorePut
	// StoreMGet serves a batch of keys through the store's batched
	// multi-get (one protected entry/exit per member domain per batch).
	StoreMGet
	// StoreScan walks a hashed-key window, returning value copies.
	StoreScan
	// StoreDelete removes one key.
	StoreDelete
	// StoreRMW is a read-modify-write: read one key's value, then put
	// a fresh payload back under the same key (YCSB workload F's op
	// class). The read and the write are separate protected ops, like
	// a cache's read-update cycle.
	StoreRMW
	// StoreMPut upserts a batch of keys through the store's batched
	// multi-put (one protected entry/exit per member domain per batch)
	// — the write-side mirror of StoreMGet.
	StoreMPut
)

// NumStoreOps is the number of StoreOp kinds: arrays indexed by StoreOp
// have this length.
const NumStoreOps = int(StoreMPut) + 1

// storeOpNames are the reporting names; the five single-key ones are
// also the trace spellings ParseTrace accepts.
var storeOpNames = [NumStoreOps]string{"get", "put", "mget", "scan", "delete", "rmw", "mput"}

// String returns the op's reporting name (get, put, mget, scan, delete,
// rmw, mput).
func (o StoreOp) String() string {
	if int(o) < NumStoreOps {
		return storeOpNames[o]
	}
	return fmt.Sprintf("StoreOp(%d)", uint8(o))
}

// StoreMix is a store operation mixture in percent; fields must sum to
// 100.
type StoreMix struct {
	GetPct    int
	PutPct    int
	MGetPct   int
	ScanPct   int
	DeletePct int
	RMWPct    int
	MPutPct   int
}

// StoreServe is the standard KV-serving mix for store sweeps: 65% get /
// 15% put / 10% multi-get / 5% scan / 5% delete — read-dominated like a
// cache front, with enough writes that value retirement runs
// continuously.
var StoreServe = StoreMix{GetPct: 65, PutPct: 15, MGetPct: 10, ScanPct: 5, DeletePct: 5}

// Share returns op's percentage of the mix (0 for an unknown op).
func (m StoreMix) Share(op StoreOp) int {
	switch op {
	case StoreGet:
		return m.GetPct
	case StorePut:
		return m.PutPct
	case StoreMGet:
		return m.MGetPct
	case StoreScan:
		return m.ScanPct
	case StoreDelete:
		return m.DeletePct
	case StoreRMW:
		return m.RMWPct
	case StoreMPut:
		return m.MPutPct
	}
	return 0
}

// Valid reports whether the mix sums to 100 with no negatives.
func (m StoreMix) Valid() bool {
	return m.GetPct >= 0 && m.PutPct >= 0 && m.MGetPct >= 0 && m.ScanPct >= 0 &&
		m.DeletePct >= 0 && m.RMWPct >= 0 && m.MPutPct >= 0 &&
		m.GetPct+m.PutPct+m.MGetPct+m.ScanPct+m.DeletePct+m.RMWPct+m.MPutPct == 100
}

// NextStore draws the next store operation kind from m using r. Newer
// classes (RMW, then MPut) are drawn last so mixes without them consume
// the exact same random stream they did before the class existed.
func (m StoreMix) NextStore(r *rng.State) StoreOp {
	p := r.Pct()
	switch {
	case p < m.GetPct:
		return StoreGet
	case p < m.GetPct+m.PutPct:
		return StorePut
	case p < m.GetPct+m.PutPct+m.MGetPct:
		return StoreMGet
	case p < m.GetPct+m.PutPct+m.MGetPct+m.ScanPct:
		return StoreScan
	case p < m.GetPct+m.PutPct+m.MGetPct+m.ScanPct+m.DeletePct:
		return StoreDelete
	case p < m.GetPct+m.PutPct+m.MGetPct+m.ScanPct+m.DeletePct+m.RMWPct:
		return StoreRMW
	default:
		return StoreMPut
	}
}

const hexDigits = "0123456789abcdef"

// KeyLen is the length of every canonical store benchmark key.
const KeyLen = 17

// KeyString renders rank i as the canonical store benchmark key
// ("k" + 16 hex digits): fixed-length, allocation-exact, and unique per
// rank.
func KeyString(i int64) string {
	var b [KeyLen]byte
	PutKey(&b, i)
	return string(b[:])
}

// PutKey writes KeyString(i)'s bytes into b and returns a string over
// them without a copy, valid until b is next written. The trial harness
// and the chaos injectors format each drawn rank's key into a buffer
// their worker reuses and pass that string to one store op, which is
// sound because the store never retains a key (the store package doc,
// "Sharding and keys"); any other use must copy it. The key is then as
// hot as a real client's, and no rank → key table puts a cache miss in
// front of every op for the trial to time as store cost.
func PutKey(b *[KeyLen]byte, i int64) string {
	b[0] = 'k'
	x := uint64(i)
	for j := KeyLen - 1; j >= 1; j-- {
		b[j] = hexDigits[x&0xf]
		x >>= 4
	}
	return unsafe.String(&b[0], KeyLen)
}

// MinValueLen is the smallest payload of the full verifiable format:
// the 8-byte checksum head. Sizes below it use the compact format.
const MinValueLen = 8

// MinCompactLen is the smallest verifiable payload overall: the 4-byte
// checksum of the compact small-value format. Requested sizes below it
// are clamped up to it.
const MinCompactLen = 4

// AppendValueBytes appends a verifiable payload of exactly size bytes
// for key to buf and returns the result. Two formats, selected by
// length alone so the verifier needs no side channel:
//
//   - size >= MinValueLen (full): the head is EncodeValue(key, tag) —
//     the same (tag, checksum) word the uint64 value plane uses — and
//     the body is a splitmix stream seeded by that head.
//   - MinCompactLen <= size < MinValueLen (compact): size-4 low tag
//     bytes little-endian, then checksum32(key, truncated tag)
//     little-endian. These sizes exist so the store's inline-value
//     fast path (payloads <= 7 bytes) is exercisable with the same
//     checksum discipline as every other served byte.
//
// Sizes below MinCompactLen clamp up to it. Either way, any torn,
// truncated, cross-key or stale-slot payload fails ValueBytesValid
// with overwhelming probability.
//
// Both formats are little-endian words: the payload is written a whole
// word at a time (binary.LittleEndian) and the last partial word byte
// by byte, which gives exactly the bytes a byte-at-a-time encoder
// would (FuzzValueCodecMatchesBytewise pins this).
func AppendValueBytes(buf []byte, key int64, tag uint32, size int) []byte {
	if size < MinCompactLen {
		size = MinCompactLen
	}
	start := len(buf)
	buf = slices.Grow(buf, size)[:start+size]
	v := buf[start:]
	if size < MinValueLen {
		nb := size - MinCompactLen  // tag bytes carried (0..3)
		tt := tag & (1<<(8*nb) - 1) // the truncated tag
		w := uint64(tt) | uint64(checksum32(key, tt))<<(8*nb)
		putTail(v, w)
		return buf
	}
	head := EncodeValue(key, tag)
	binary.LittleEndian.PutUint64(v, head)
	x := head
	off := 8
	for ; off+8 <= size; off += 8 {
		binary.LittleEndian.PutUint64(v[off:], splitmix(&x))
	}
	if off < size {
		putTail(v[off:], splitmix(&x))
	}
	return buf
}

// putTail writes the low len(b) bytes of w (len(b) < 8) little-endian.
func putTail(b []byte, w uint64) {
	for i := range b {
		b[i] = byte(w)
		w >>= 8
	}
}

// tail reads len(b) bytes (len(b) < 8) as a little-endian word.
func tail(b []byte) uint64 {
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// ValueBytesValid reports whether v is a payload AppendValueBytes could
// have produced for key, in whichever format its length selects: the
// compact tag/checksum pair for lengths in [MinCompactLen, MinValueLen),
// or the head word passing ValueValid and the body matching the
// head-seeded stream exactly for full-format lengths. It compares a
// whole little-endian word at a time and the last partial word as one
// word of its bytes: every byte is checked, as a byte-at-a-time
// verifier would, so the verdict is the same for every input.
func ValueBytesValid(key int64, v []byte) bool {
	if len(v) < MinCompactLen {
		return false
	}
	if len(v) < MinValueLen {
		nb := len(v) - MinCompactLen
		w := tail(v)
		tt := uint32(w) & (1<<(8*nb) - 1)
		return uint32(w>>(8*nb)) == checksum32(key, tt)
	}
	head := binary.LittleEndian.Uint64(v)
	if !ValueValid(key, head) {
		return false
	}
	x := head
	off := 8
	for ; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != splitmix(&x) {
			return false
		}
	}
	if off < len(v) {
		n := len(v) - off
		return tail(v[off:]) == splitmix(&x)&(1<<(8*n)-1)
	}
	return true
}

// splitmix is the SplitMix64 step used for value-body streams.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
