package server

import (
	"sync"
	"sync/atomic"

	"pop/internal/core"
	"pop/internal/store"
)

// getReq is one connection's single-key get, queued to its shard's
// coalescer. buf is the connection's scratch: the combiner appends the
// value into it and hands it back through out, so a hit costs no
// allocation once the connection's buffer has grown.
type getReq struct {
	key string
	buf []byte
	out chan<- getResult
}

// getResult answers a getReq. val aliases the request's buf (the
// connection owns it again once the result is received); ok=false means
// the key is absent.
type getResult struct {
	val []byte
	ok  bool
}

// coalescer merges concurrent single-key gets bound for one shard into
// batched protected operations by flat combining (Hendler, Incze,
// Shavit, Tzafrir, SPAA 2010): there is no executor goroutine and no
// waiting for company. A connection enqueues its get and then tries the
// combiner lock; whoever wins serves everything queued — its own get
// and any that arrived while another combiner held the lock — with one
// Store.GetBatch per maxBatch requests, on the shard's dedicated group
// handle. A lone get therefore runs inline on the goroutine that read
// it, and gets only share a protected operation when they actually
// contend for the shard: the reclamation cost of a read scales with
// combiner passes, not with connection count, and batching costs
// nothing when there is nobody to batch with.
//
// No request is stranded: a get is enqueued (under qmu) before its
// TryLock, so if the TryLock fails, the holder's re-check of the queue
// after its Unlock (also under qmu) sees it — either the re-check's qmu
// section follows the enqueue's and observes the request, or it
// precedes it, in which case the holder's Unlock happened before the
// TryLock and the TryLock lost to a later holder that owes the same
// re-check.
//
// The handle is leased once at server start and takes no admission
// token (get service can never deadlock against admission, and the
// coalescers never show in slots_inuse); it is used by whichever
// goroutine holds mu: the mutex is
// the happens-before edge that hands the handle's owner-only state from
// one combiner to the next. Serving one shard only, the handle lazily
// leases exactly that shard's member domain thread.
type coalescer struct {
	st       *store.Store
	maxBatch int

	qmu   sync.Mutex
	queue []getReq // gets awaiting a combiner

	mu    sync.Mutex        // the combiner lock; guards everything below
	h     *core.GroupHandle // released by Server.Close
	batch []getReq          // the queue being served (swapped with queue)
	keys  []string
	b     store.Batch

	gets      atomic.Uint64 // gets served through this coalescer
	batches   atomic.Uint64 // GetBatch calls issued
	coalesced atomic.Uint64 // gets that shared a batch with >= 1 other
	maxSeen   atomic.Uint64 // widest batch observed
}

// get answers one single-key get: enqueue, combine, receive. The value
// is appended to buf[:0]; out must have room for one result (the
// combiner may be this goroutine).
func (c *coalescer) get(key string, buf []byte, out chan getResult) getResult {
	c.qmu.Lock()
	c.queue = append(c.queue, getReq{key: key, buf: buf, out: out})
	c.qmu.Unlock()
	c.combine()
	return <-out
}

// combine serves the queue for as long as this goroutine can take the
// combiner lock and there is something queued; the re-check after every
// Unlock is what the no-stranding argument above rests on.
func (c *coalescer) combine() {
	for c.mu.TryLock() {
		c.serveQueued()
		c.mu.Unlock()
		if c.queued() == 0 {
			return
		}
	}
}

func (c *coalescer) queued() int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return len(c.queue)
}

// serveQueued takes everything queued and answers it, one GetBatch per
// maxBatch requests (mu held).
func (c *coalescer) serveQueued() {
	c.qmu.Lock()
	c.batch, c.queue = c.queue, c.batch[:0]
	c.qmu.Unlock()
	for reqs := c.batch; len(reqs) > 0; {
		n := min(len(reqs), c.maxBatch)
		c.serveBatch(reqs[:n])
		reqs = reqs[n:]
	}
	clear(c.batch) // drop the served keys and buffers
}

func (c *coalescer) serveBatch(reqs []getReq) {
	c.keys = c.keys[:0]
	for i := range reqs {
		c.keys = append(c.keys, reqs[i].key)
	}
	c.st.GetBatch(c.h, c.keys, &c.b)
	for i, r := range reqs {
		res := getResult{val: r.buf[:0]}
		if c.b.OK[i] {
			res = getResult{val: append(r.buf[:0], c.b.Vals[i]...), ok: true}
		}
		r.out <- res // never blocks: one request per channel, room for one result
	}

	n := uint64(len(reqs))
	c.gets.Add(n)
	c.batches.Add(1)
	if n > 1 {
		c.coalesced.Add(n)
	}
	if n > c.maxSeen.Load() {
		c.maxSeen.Store(n) // mu held: no concurrent writer
	}
}
