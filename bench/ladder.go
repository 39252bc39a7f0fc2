package main

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/hmlist"
	"pop/internal/ds/skiplist"
	"pop/internal/server"
	"pop/internal/store"
	"pop/internal/workload"
)

// ladder is the bench-owned copy of every layer below a workload's entry
// layer: a core.Domain with a protectable node, a sibling of the
// workload's structure at its per-shard population, and a value arena.
// The traced pass replays ops against them, and the batch probes time
// their public functions on the workload's own key stream.
type ladder struct {
	sp      spec
	shrink  int // divides the probes' iteration counts (smoke test)
	dom     *core.Domain
	cells   [8]core.Atomic // protect targets: live probe nodes
	typ     uint8
	sib     sibling
	sibKeys []int64 // the keys the sibling holds; rank r replays as sibKeys[r % len]
	perKey  float64 // heap bytes per key the sibling's build cost
	vals    *arena.Bytes
	handles []arena.Handle
	rungs   []*workerRungs
}

// workerRungs is one worker's leases into the ladder.
type workerRungs struct {
	lad   *ladder
	th    *core.Thread
	nodes *arena.ThreadCache[probeNode]
	cache *arena.BytesCache
	ring  [1024]arena.Handle // allocations not yet freed: frees trail allocs, as under a reclaimer
	ringI int
	buf   []byte
}

// sibling is a structure of the workload's kind that reports its pool
// occupancy: hmlist.List or skiplist.List.
type sibling interface {
	ds.Map
	Outstanding() int64
}

type probeNode struct {
	core.Header
	_ [40]byte // a list node's size
}

// skiplistProtects is how many reservations a skiplist lookup publishes:
// the index hint plus a few bottom-layer hops.
const skiplistProtects = 6

const storeShards = 8

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func newLadder(sp spec, kt *keyTable, shrink int) *ladder {
	lad := &ladder{sp: sp, shrink: shrink}
	// One slot per worker and one for the probes, which run while the
	// workers are parked.
	lad.dom = core.NewDomain(sp.policy, workers+1, nil)
	pool := arena.NewPool[probeNode](nil, nil)
	lad.typ = lad.dom.RegisterType(func(t *core.Thread, h *core.Header) {
		lad.rungs[t.ID()].nodes.Put((*probeNode)(unsafe.Pointer(h)))
	})
	lad.vals = arena.NewBytes()
	for range workers + 1 {
		lad.rungs = append(lad.rungs, &workerRungs{
			lad: lad, th: lad.dom.RegisterThread(),
			nodes: pool.NewCache(), cache: lad.vals.NewCache(),
		})
	}
	probe := lad.rungs[workers]
	for i := range lad.cells {
		n := probe.nodes.Get()
		probe.th.OnAlloc(&n.Header, lad.typ)
		lad.cells[i].Store(unsafe.Pointer(n))
	}

	// The sibling: same structure, the workload's per-shard population,
	// keys as the store files them.
	before := heapAlloc()
	if sp.kind == kindList {
		lad.sib = hmlist.New(lad.dom)
		for k := int64(0); k < sp.keys; k += 2 {
			lad.sibKeys = append(lad.sibKeys, k)
		}
	} else {
		lad.sib = skiplist.New(lad.dom)
		lad.sibKeys = kt.hks[:max(sp.keys/storeShards, 1)]
	}
	for i, k := range lad.sibKeys {
		lad.sib.Put(probe.th, k, workload.EncodeValue(k, uint32(i)))
	}
	lad.perKey = float64(int64(heapAlloc())-int64(before)) / float64(len(lad.sibKeys))

	payload := lad.payload(1)
	lad.handles = make([]arena.Handle, max(sp.keys/storeShards, 1))
	for i := range lad.handles {
		lad.handles[i] = probe.cache.Alloc(payload)
	}
	return lad
}

// protects replays the core share of one op: n reservations published and
// dropped inside one StartOp/EndOp.
func (t *tracer) protects(parent int32, write bool, n int) {
	r := t.rungs
	id := t.begin(parent, layerCore, nameProtect, write)
	r.th.StartOp()
	for i := range n {
		r.th.Protect(i%3, &r.lad.cells[i%len(r.lad.cells)])
	}
	r.th.EndOp()
	t.end(id)
}

// belowStore replays the layers a store op rests on: the sibling map
// lookup or overwrite (and the reservations under it), and the arena read
// or the alloc+free an overwrite costs.
func (t *tracer) belowStore(parent int32, o op, hk int64, payload []byte) {
	r := t.rungs
	lad := r.lad
	k := lad.sibKeys[o.rank%int64(len(lad.sibKeys))]
	id := t.begin(parent, layerDS, opName(o.write), o.write)
	if o.write {
		lad.sib.Put(r.th, k, workload.EncodeValue(k, uint32(hk)))
	} else {
		lad.sib.Get(r.th, k)
	}
	t.end(id)
	t.protects(id, o.write, skiplistProtects)
	if o.write {
		id = t.begin(parent, layerArena, nameAllocFree, true)
		r.allocFree(payload)
	} else {
		id = t.begin(parent, layerArena, nameRead, false)
		r.buf, _ = lad.vals.Read(lad.handles[o.rank%int64(len(lad.handles))], r.buf)
	}
	t.end(id)
}

// allocFree allocates a slot for payload and frees the one allocated a
// ring's length ago.
func (r *workerRungs) allocFree(payload []byte) {
	old := r.ring[r.ringI]
	r.ring[r.ringI] = r.cache.Alloc(payload)
	r.ringI = (r.ringI + 1) % len(r.ring)
	if old != 0 {
		r.cache.Free(old)
	}
}

// pingAck returns the median ns from a reclaimer's ping to the reader's
// publish, on a HazardPtrPOP domain of its own: one reader inside
// operations, and this goroutine retiring until its passes have pinged it
// a few dozen times. The workloads' own domains cannot supply this: under
// EpochPOP a pass pings only when a stalled reader forces the escalation,
// which a closed loop never does.
func pingAck() float64 {
	const threshold, passes = 256, 32
	d := core.NewDomain(core.HazardPtrPOP, 2, &core.Options{ReclaimThreshold: threshold})
	pool := arena.NewPool[probeNode](nil, nil)
	caches := []*arena.ThreadCache[probeNode]{pool.NewCache(), pool.NewCache()}
	typ := d.RegisterType(func(t *core.Thread, h *core.Header) {
		caches[t.ID()].Put((*probeNode)(unsafe.Pointer(h)))
	})
	reader, reclaimer := d.RegisterThread(), d.RegisterThread()
	var cell core.Atomic
	n := caches[reclaimer.ID()].Get()
	reclaimer.OnAlloc(&n.Header, typ)
	cell.Store(unsafe.Pointer(n))
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			reader.StartOp()
			reader.Protect(0, &cell)
			reader.EndOp()
		}
	}()
	for range threshold * passes {
		n := caches[reclaimer.ID()].Get()
		reclaimer.OnAlloc(&n.Header, typ)
		reclaimer.Retire(&n.Header)
	}
	stop.Store(true)
	<-done
	h := d.PingAckHist()
	reader.Release()
	reclaimer.Release()
	return h.Quantile(0.5)
}

// perOp times n calls of fn as one batch and returns ns per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := range n {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeCore runs the batch-timed probes of the layers that need no store:
// public functions too short to time one call at a time. draw is the
// workload's own generator and key a store key to build wire lines from.
func (lad *ladder) probeCore(m metrics, draw func() op, key string) error {
	batch := 200_000 / lad.shrink
	r := lad.rungs[workers]

	m.set("core.protect_ns", perOp(4*batch, func(i int) {
		r.th.StartOp()
		r.th.Protect(0, &lad.cells[i%len(lad.cells)])
		r.th.EndOp()
	}))
	m.set("core.retire_ns", perOp(batch, func(int) {
		nd := r.nodes.Get()
		r.th.OnAlloc(&nd.Header, lad.typ)
		r.th.Retire(&nd.Header)
	}))
	m.set("core.ping_ack_p50_us", pingAck()/1e3)

	// The generator, as the closed loops pay for it: key draw, key string,
	// value fill.
	ranks := make([]int64, batch)
	m.set("workload.next_ns", perOp(batch, func(i int) { ranks[i] = draw().rank }))

	payload := lad.payload(1)
	m.set("arena.read_ns", perOp(batch, func(i int) {
		r.buf, _ = lad.vals.Read(lad.handles[ranks[i]%int64(len(lad.handles))], r.buf)
	}))
	hs := make([]arena.Handle, batch/4)
	m.set("arena.alloc_ns", perOp(len(hs), func(i int) { hs[i] = r.cache.Alloc(payload) }))
	m.set("arena.free_ns", perOp(len(hs), func(i int) { r.cache.Free(hs[i]) }))

	// The codec: a get line, and a framed set.
	var cmd server.Command
	line := []byte("get " + key)
	var err error
	m.set("server.parse_ns", perOp(batch, func(int) {
		if e := server.ParseCommand(line, &cmd); e != nil {
			err = e
		}
	}))
	wire := []byte("set " + key + " 0 0 " + strconv.Itoa(len(payload)) + "\r\n")
	wire = append(append(wire, payload...), "\r\n"...)
	rd := server.NewReader(&loopReader{data: wire}, 0)
	var vbuf []byte
	m.set("server.readcmd_set_ns", perOp(batch, func(int) {
		var e error
		if vbuf, e = rd.ReadCommand(&cmd, vbuf); e != nil {
			err = e
		}
	}))
	return err
}

// payload is a verifiable value for hashed key hk at the workload's value
// size (the store's default where the workload has none).
func (lad *ladder) payload(hk int64) []byte {
	return workload.AppendValueBytes(nil, hk, 1, max(lad.sp.valueLen, 64))
}

// probeStore times the store rung on s, whose keys are kt's. lad must be
// the ladder whose sibling matches s's shards; draw is the generator of
// the callers that run on s.
func (lad *ladder) probeStore(m metrics, draw func() op, s *store.Store, kt *keyTable) error {
	r := lad.rungs[workers]
	h, err := s.Acquire()
	if err != nil {
		return err
	}
	defer s.Release(h)

	// What the store adds to the layers under it. Two 3 us lookups in
	// unrelated cache states do not subtract to a 300 ns answer, so this
	// rung is taken warm: the same few keys over and over through the
	// store, the sibling and the arena, each call timed, medians
	// subtracted, and the one clock read a timed call contains (it is in
	// all three terms) added back once.
	warm := min(64, len(lad.sibKeys), len(lad.handles))
	timed := func(fn func(i int)) float64 {
		var lat hist
		for round := range 1 + 128/lad.shrink {
			if round == 1 {
				lat.reset() // the first round only warms
			}
			for i := range warm {
				t0 := time.Now()
				fn(i)
				lat.record(int64(time.Since(t0)))
			}
		}
		return lat.quantile(0.5)
	}
	payloads := make([][]byte, warm)
	for i := range payloads {
		payloads[i] = lad.payload(kt.hks[i])
	}
	clock := timed(func(int) {})
	var gbuf []byte
	get := timed(func(i int) { gbuf, _ = s.Get(h, kt.keys[i], gbuf) }) -
		timed(func(i int) { lad.sib.Get(r.th, lad.sibKeys[i]) }) -
		timed(func(i int) { r.buf, _ = lad.vals.Read(lad.handles[i], r.buf) })
	put := timed(func(i int) { s.Put(h, kt.keys[i], payloads[i]) }) -
		timed(func(i int) { lad.sib.Put(r.th, lad.sibKeys[i], uint64(i)) }) -
		timed(func(i int) { r.allocFree(payloads[i]) })
	m.set("store.self_get_ns", get+clock)
	m.set("store.self_put_ns", put+clock)

	// Heap allocations per op of the workload's own mix on s.
	n := 10_000 / lad.shrink
	allocs, bytes := allocsPerOp(n, func() {
		for range n {
			o := draw()
			if o.write {
				r.buf = workload.AppendValueBytes(r.buf[:0], kt.hks[o.rank], uint32(o.rank), len(payloads[0]))
				s.Put(h, kt.keys[o.rank], r.buf)
			} else {
				gbuf, _ = s.Get(h, kt.keys[o.rank], gbuf)
			}
		}
	})
	m.set("store.allocs_per_op", allocs)
	m.set("store.alloc_bytes_per_op", bytes)

	// Batched multi-get, 16 keys a call, on the workload's own key draws.
	const width = 16
	var b store.Batch
	batch := make([]string, width)
	m.set("store.getbatch_ns_per_key", perOp(12_500/lad.shrink, func(int) {
		for j := range batch {
			batch[j] = kt.keys[draw().rank]
		}
		s.GetBatch(h, batch, &b)
	})/width)
	return nil
}

// loopReader serves data over and over: an endless pipelined connection.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}
