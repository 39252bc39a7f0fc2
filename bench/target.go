package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pop/internal/core"
	"pop/internal/ds/hmlist"
	"pop/internal/rng"
	"pop/internal/server"
	"pop/internal/store"
	"pop/internal/workload"
)

// op is one drawn operation: all a worker's generator hands the program.
type op struct {
	write bool
	del   bool   // list only: the write is a Delete, not a PutIfAbsent
	rank  int64  // list: the key itself; store and serve: index into the key table
	val   uint64 // list only: the PutIfAbsent value
}

// worker is one closed-loop caller. draw is the generator (key draw, key
// string, value fill); exec is the call into the workload's entry layer
// plus the check of what came back, and reports whether the op succeeded.
type worker interface {
	draw() op
	exec(o op) bool
	// root names the span around exec in the traced pass.
	root(o op) (layer, spanName)
	// replay re-issues o through every layer below the entry layer,
	// recording child spans under parent.
	replay(o op, t *tracer, parent int32)
}

// instance is one constructed, prefilled, verified and warmed system.
type instance interface {
	workers() []worker
	// coreStats snapshots the reclamation counters of the instance's own
	// domain.
	coreStats() coreSnapshot
	// store returns the store.Store inside the instance, or nil.
	storeOf() *store.Store
	// retire stops the callers and drops the generator inputs they hold,
	// so that what stays reachable is the system alone.
	retire()
	// finish retires the callers, drains reclamation, checks the
	// population and the retire/free balance, and tears the instance down.
	finish() error
}

type coreSnapshot struct {
	stats     core.Stats
	reclaim   core.ReclaimStats
	passP50Ns float64
}

func workerSeed(seed uint64, id int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(id+1)*0xbf58476d1ce4e5b9
}

// keyTable is the pregenerated input: rank -> store key and its hash, so
// no loop formats a key.
type keyTable struct {
	keys []string
	hks  []int64
}

func newKeyTable(n int64) *keyTable {
	kt := &keyTable{keys: make([]string, n), hks: make([]int64, n)}
	for i := range kt.keys {
		kt.keys[i] = workload.KeyString(int64(i))
		kt.hks[i] = store.KeyHash(kt.keys[i])
	}
	return kt
}

// setup builds one instance of sp: construct, prefill, verify, warm up.
// kt is nil for the list workload.
func setup(sp spec, seed uint64, kt *keyTable) (instance, error) {
	var (
		inst instance
		err  error
	)
	switch sp.kind {
	case kindList:
		inst, err = newListInst(sp, seed)
	case kindStore:
		inst, err = newStoreInst(sp, seed, kt)
	default:
		inst, err = newServeInst(sp, seed, kt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", sp.name, err)
	}
	if failed := runOps(inst.workers(), sp.warmOps/workers); failed > 0 {
		inst.finish()
		return nil, fmt.Errorf("%s: %d ops failed during warm-up", sp.name, failed)
	}
	return inst, nil
}

func asWorkers[W worker](ws []W) []worker {
	out := make([]worker, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// runOps has every worker perform n ops and returns how many failed.
func runOps(ws []worker, n int) uint64 {
	failed := make([]uint64, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				if !w.exec(w.draw()) {
					failed[i]++
				}
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, f := range failed {
		sum += f
	}
	return sum
}

// ---- list: ds.Map entered directly ----

type listInst struct {
	sp   spec
	d    *core.Domain
	l    *hmlist.List
	ws   []*listWorker
	ths  []*core.Thread
	size int64 // expected: the prefill, plus the workers' deltas once retired
}

type listWorker struct {
	l     *hmlist.List
	th    *core.Thread
	gen   *workload.Generator
	delta int64 // successful inserts minus successful deletes
}

func newListInst(sp spec, seed uint64) (*listInst, error) {
	d := core.NewDomain(sp.policy, workers, nil)
	in := &listInst{sp: sp, d: d, l: hmlist.New(d), size: sp.keys / 2}
	for id := range workers {
		gen, err := workload.NewGeneratorErr(workerSeed(seed, id), workload.ReadHeavy, sp.keys)
		if err != nil {
			return nil, err
		}
		in.ths = append(in.ths, d.RegisterThread())
		in.ws = append(in.ws, &listWorker{l: in.l, th: in.ths[id], gen: gen})
	}
	// Prefill to half the range with seeded uniform keys, then read every
	// one back.
	th := in.ths[0]
	r := rng.New(seed ^ 0xfeed)
	present := make(map[int64]bool, in.size)
	for int64(len(present)) < in.size {
		k := r.Intn(sp.keys)
		if in.l.PutIfAbsent(th, k, workload.EncodeValue(k, uint32(len(present)))) {
			present[k] = true
		}
	}
	if n := int64(in.l.Size(th)); n != in.size {
		return nil, fmt.Errorf("prefill: size %d, want %d", n, in.size)
	}
	for k := range present {
		if v, ok := in.l.Get(th, k); !ok || !workload.ValueValid(k, v) {
			return nil, fmt.Errorf("prefill: key %d missing or corrupt", k)
		}
	}
	return in, nil
}

func (in *listInst) workers() []worker { return asWorkers(in.ws) }

func (in *listInst) storeOf() *store.Store { return nil }

func (in *listInst) coreStats() coreSnapshot {
	pass := in.d.PassDurHist()
	return coreSnapshot{stats: in.d.Stats(), reclaim: in.d.ReclaimStats(), passP50Ns: pass.Quantile(0.5)}
}

func (in *listInst) retire() {
	for _, w := range in.ws {
		in.size += w.delta
	}
	in.ws = nil
}

func (in *listInst) finish() error {
	in.retire()
	for _, th := range in.ths {
		th.Flush()
	}
	size := int64(in.l.Size(in.ths[0]))
	st := in.d.Stats()
	var errs []error
	if size != in.size {
		errs = append(errs, fmt.Errorf("size %d, want %d", size, in.size))
	}
	if out := in.l.Outstanding(); out != size {
		errs = append(errs, fmt.Errorf("%d nodes outstanding after drain, %d live", out, size))
	}
	if st.Retires != st.Frees {
		errs = append(errs, fmt.Errorf("%d retires but %d frees after drain", st.Retires, st.Frees))
	}
	for _, th := range in.ths {
		th.Release()
	}
	return errors.Join(errs...)
}

func (w *listWorker) draw() op {
	k, key := w.gen.Next()
	switch k {
	case workload.Contains:
		return op{rank: key}
	case workload.Insert:
		return op{write: true, rank: key, val: w.gen.Value(key)}
	default:
		return op{write: true, del: true, rank: key}
	}
}

func (w *listWorker) exec(o op) bool {
	l := w.l
	switch {
	case !o.write:
		v, ok := l.Get(w.th, o.rank)
		return !ok || workload.ValueValid(o.rank, v)
	case o.del:
		v, ok := l.Delete(w.th, o.rank)
		if !ok {
			return true
		}
		w.delta--
		return workload.ValueValid(o.rank, v)
	default:
		if l.PutIfAbsent(w.th, o.rank, o.val) {
			w.delta++
		}
		return true
	}
}

func (w *listWorker) root(o op) (layer, spanName) { return layerDS, opName(o.write) }

func (w *listWorker) replay(o op, t *tracer, parent int32) {
	// A walk to key passes the keys below it, half of which are present.
	t.protects(parent, o.write, int(o.rank/2)+2)
}

// ---- kv: the generator the store and serve workloads share ----

type kvGen struct {
	kt       *keyTable
	keys     *workload.Sampler
	r        *rng.State
	mix      workload.StoreMix
	valueLen int
	tag      uint32
	vbuf     []byte // payload of the last drawn write
	gbuf     []byte
}

func newKVGen(sp spec, seed uint64, id int, kt *keyTable) (*kvGen, error) {
	keys, err := workload.NewSampler(workerSeed(seed, id), sp.keys, sp.dist, 0)
	if err != nil {
		return nil, err
	}
	return &kvGen{
		kt: kt, keys: keys, r: rng.New(workerSeed(seed, id) ^ 0x5eed),
		mix:      workload.StoreMix{GetPct: sp.readPct, PutPct: 100 - sp.readPct},
		valueLen: sp.valueLen, tag: uint32(id) << 28,
	}, nil
}

func (g *kvGen) draw() op {
	o := op{write: g.mix.NextStore(g.r) == workload.StorePut, rank: g.keys.Next()}
	if o.write {
		g.tag++
		g.vbuf = workload.AppendValueBytes(g.vbuf[:0], g.kt.hks[o.rank], g.tag, g.valueLen)
	}
	return o
}

// onHandles runs fn on one leased handle per caller, all at once.
func onHandles(s *store.Store, fn func(id int, h *core.GroupHandle) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for id := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := s.Acquire()
			if err != nil {
				errs[id] = err
				return
			}
			defer s.Release(h)
			errs[id] = fn(id, h)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// kvPrefill puts every key of kt[:n] once, split over the callers' handles,
// then reads every key back.
func kvPrefill(s *store.Store, n int64, kt *keyTable, valueLen int) error {
	err := onHandles(s, func(id int, h *core.GroupHandle) error {
		var buf []byte
		for k := int64(id); k < n; k += workers {
			buf = workload.AppendValueBytes(buf[:0], kt.hks[k], uint32(k)|1<<31, valueLen)
			s.Put(h, kt.keys[k], buf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return onHandles(s, func(id int, h *core.GroupHandle) error {
		var buf []byte
		for k := int64(id); k < n; k += workers {
			var ok bool
			if buf, ok = s.Get(h, kt.keys[k], buf); !ok || !workload.ValueBytesValid(kt.hks[k], buf) {
				return fmt.Errorf("prefill: key %q missing or corrupt", kt.keys[k])
			}
		}
		return nil
	})
}

// kvBalance checks a drained store: every value arena-backed, so the
// pools hold exactly one node and one value slot per key, nothing is
// awaiting reclamation, and every retire has been freed.
func kvBalance(s *store.Store, keys int64) error {
	g := s.Group()
	st, cs := s.Stats(), g.Stats()
	var errs []error
	if pop := int64(st.Puts - st.Overwrites - st.Deletes); pop != keys {
		errs = append(errs, fmt.Errorf("population %d, want %d", pop, keys))
	}
	if out := s.Outstanding(); out != 2*keys {
		errs = append(errs, fmt.Errorf("%d allocations outstanding after drain, want %d", out, 2*keys))
	}
	if u := g.Unreclaimed(); u != 0 {
		errs = append(errs, fmt.Errorf("%d retired but unreclaimed after drain", u))
	}
	if cs.Retires != cs.Frees {
		errs = append(errs, fmt.Errorf("%d retires but %d frees after drain", cs.Retires, cs.Frees))
	}
	if lc := g.Lifecycle(); lc.Leased != 0 {
		errs = append(errs, fmt.Errorf("%d thread leases leaked", lc.Leased))
	}
	return errors.Join(errs...)
}

func groupStats(g *core.DomainGroup) coreSnapshot {
	pass := g.PassDurHist()
	return coreSnapshot{stats: g.Stats(), reclaim: g.ReclaimStats(), passP50Ns: pass.Quantile(0.5)}
}

// ---- store: Store.Get/Put in process ----

type storeInst struct {
	sp spec
	s  *store.Store
	ws []*storeWorker
	hs []*core.GroupHandle
}

type storeWorker struct {
	*kvGen
	s *store.Store
	h *core.GroupHandle
}

func newStoreInst(sp spec, seed uint64, kt *keyTable) (*storeInst, error) {
	// Defaults: 8 shards, skiplist backing, one member domain. The group
	// holds the callers' slots and one spare, which the traced run's probes
	// lease while the callers are parked; unleased, it registers no thread.
	s, err := store.New(core.NewDomainGroup(sp.policy, 1, workers+1, nil), store.Config{})
	if err != nil {
		return nil, err
	}
	if err := kvPrefill(s, sp.keys, kt, sp.valueLen); err != nil {
		return nil, err
	}
	in := &storeInst{sp: sp, s: s}
	for id := range workers {
		g, err := newKVGen(sp, seed, id, kt)
		if err != nil {
			return nil, err
		}
		h, err := s.Acquire()
		if err != nil {
			return nil, err
		}
		in.ws, in.hs = append(in.ws, &storeWorker{kvGen: g, s: s, h: h}), append(in.hs, h)
	}
	return in, nil
}

func (in *storeInst) workers() []worker { return asWorkers(in.ws) }

func (in *storeInst) storeOf() *store.Store   { return in.s }
func (in *storeInst) coreStats() coreSnapshot { return groupStats(in.s.Group()) }

func (in *storeInst) retire() { in.ws = nil }

func (in *storeInst) finish() error {
	in.retire()
	for _, h := range in.hs {
		h.Drain()
	}
	for _, h := range in.hs {
		in.s.Release(h)
	}
	return kvBalance(in.s, in.sp.keys)
}

func (w *storeWorker) exec(o op) bool {
	key := w.kt.keys[o.rank]
	if o.write {
		w.s.Put(w.h, key, w.vbuf)
		return true
	}
	var ok bool
	w.gbuf, ok = w.s.Get(w.h, key, w.gbuf)
	return ok && workload.ValueBytesValid(w.kt.hks[o.rank], w.gbuf)
}

func (w *storeWorker) root(o op) (layer, spanName) { return layerStore, opName(o.write) }

func (w *storeWorker) replay(o op, t *tracer, parent int32) {
	t.belowStore(parent, o, w.kt.hks[o.rank], w.vbuf)
}

// ---- serve: memcached text over loopback ----

type serveInst struct {
	sp  spec
	srv *server.Server
	ws  []*serveWorker
}

type serveWorker struct {
	*kvGen
	in     *serveInst
	c      *client
	h      *core.GroupHandle // leased by the first replay: the traced pass re-issues ops in process
	cmd    server.Command
	failed bool // the first failed op has been logged
}

// serveExtraSlots are group slots beyond the two connections' admission
// budget: the prefill and the traced pass's in-process replays lease them
// and never compete with a connection for admission. A slot nobody leases
// registers no thread, so the untraced run is the server on its defaults.
const serveExtraSlots = workers

func newServeInst(sp spec, seed uint64, kt *keyTable) (*serveInst, error) {
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Policy:     sp.policy,
		Slots:      workers,
		ExtraSlots: serveExtraSlots,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	in := &serveInst{sp: sp, srv: srv}
	if err := kvPrefill(srv.Store(), sp.keys, kt, sp.valueLen); err != nil {
		srv.Close()
		return nil, err
	}
	for id := range workers {
		g, err := newKVGen(sp, seed, id, kt)
		if err == nil {
			var c *client
			if c, err = dial(srv.Addr().String()); err == nil {
				in.ws = append(in.ws, &serveWorker{kvGen: g, in: in, c: c})
				continue
			}
		}
		in.retire()
		srv.Close()
		return nil, err
	}
	in.deadline(time.Now().Add(2 * time.Minute))
	return in, nil
}

// deadline bounds every reply wait on every connection until t.
func (in *serveInst) deadline(t time.Time) {
	for _, w := range in.ws {
		w.c.deadline(t)
	}
}

func (in *serveInst) workers() []worker { return asWorkers(in.ws) }

func (in *serveInst) storeOf() *store.Store   { return in.srv.Store() }
func (in *serveInst) coreStats() coreSnapshot { return groupStats(in.srv.Group()) }

func (in *serveInst) retire() {
	for _, w := range in.ws {
		w.c.close()
		if w.h != nil {
			in.srv.Store().Release(w.h)
		}
	}
	in.ws = nil
}

func (in *serveInst) finish() error {
	in.retire()
	stats := in.srv.Stats()
	if err := in.srv.Close(); err != nil {
		return err
	}
	// The connections' leases are gone; adopt what they donated.
	s := in.srv.Store()
	h, err := s.Acquire()
	if err != nil {
		return err
	}
	h.Drain()
	s.Release(h)
	if stats.ProtocolErrors != 0 || stats.AdmissionTimeouts != 0 {
		return fmt.Errorf("%d protocol errors, %d admission timeouts", stats.ProtocolErrors, stats.AdmissionTimeouts)
	}
	return kvBalance(s, in.sp.keys)
}

func (w *serveWorker) exec(o op) bool {
	key := w.kt.keys[o.rank]
	var err error
	if o.write {
		err = w.c.set(key, w.vbuf)
	} else if w.gbuf, err = w.c.get(key, w.gbuf); err == nil && !workload.ValueBytesValid(w.kt.hks[o.rank], w.gbuf) {
		err = errors.New("get: payload fails its checksum")
	}
	if err != nil && !w.failed {
		w.failed = true
		logf("  %s: first failed op on this connection: %s: %v", w.in.sp.name, key, err)
	}
	return err == nil
}

func (w *serveWorker) root(o op) (layer, spanName) { return layerServer, opName(o.write) }

func (w *serveWorker) replay(o op, t *tracer, parent int32) {
	s := w.in.srv.Store()
	if w.h == nil {
		var err error
		if w.h, err = s.Acquire(); err != nil {
			panic(fmt.Sprintf("serve replay: no group slot: %v", err)) // serveExtraSlots reserves one per worker
		}
	}
	id := t.begin(parent, layerServer, nameParse, o.write)
	err := server.ParseCommand(w.c.line, &w.cmd)
	t.end(id)
	if err != nil {
		panic(fmt.Sprintf("serve replay: own request line %q does not parse: %v", w.c.line, err))
	}
	key := w.kt.keys[o.rank]
	id = t.begin(parent, layerStore, opName(o.write), o.write)
	if o.write {
		s.Put(w.h, key, w.vbuf)
	} else {
		w.gbuf, _ = s.Get(w.h, key, w.gbuf)
	}
	t.end(id)
	t.belowStore(id, o, w.kt.hks[o.rank], w.vbuf)
}
