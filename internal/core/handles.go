package core

import "context"

// Handles is a goroutine-affine pool of Thread handles over a Domain:
// serving layers size their domain for the peak worker count and let
// the live worker set breathe inside it. Acquire leases a handle
// (re-leasing released slots before growing toward the domain cap) and
// binds it to the calling goroutine; Release returns it, after which
// any goroutine may acquire the same slot. The pool is just the
// domain's slot lifecycle behind a concurrency-safe facade — the
// ownership-transfer (happens-before) edge is the domain's, so
// tid-indexed caches in the ds and store layers hand over with the
// slot.
//
// AcquireWait is the admission-control variant: instead of returning
// ErrNoSlots when the domain is full, the caller queues (FIFO) until a
// handle released through THIS pool frees a slot or its context
// expires. A serving front places it in the accept path, so the
// connection population can exceed the slot population and excess
// connections wait their turn instead of being refused.
//
// A handle acquired here obeys the same affinity rule as one from
// RegisterThread: between Acquire and Release it must only be used by
// the goroutine that acquired it.
type Handles struct {
	d *Domain
	admission
}

// NewHandles creates a handle pool over d. Multiple pools may share a
// domain (they draw from the same slot space); handles from
// RegisterThread and from pools coexist freely. Note that AcquireWait
// waiters are woken only by Release calls on their own pool: a domain
// shared between pools can starve one pool's waiters if the other pool
// holds every slot.
func NewHandles(d *Domain) *Handles {
	return &Handles{d: d}
}

// Domain returns the pool's domain.
func (p *Handles) Domain() *Domain { return p.d }

// Acquire leases a thread handle for the calling goroutine. When every
// one of the domain's slots is currently leased it fails with an error
// wrapping ErrNoSlots.
func (p *Handles) Acquire() (*Thread, error) {
	t, err := p.d.TryRegisterThread()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.admitLocked()
	p.mu.Unlock()
	return t, nil
}

// AcquireWait leases a thread handle, blocking while the domain is
// saturated: callers queue FIFO and are woken as handles are released
// through this pool. It returns ctx.Err() if ctx expires first. This is
// the admission-control primitive — a caller population larger than the
// slot population queues for slots instead of erroring — so the only
// error a healthy (deadline-free) caller can see is its own context's.
//
// Admission is eventually fair under queued load, not strictly FIFO
// against line-jumpers (see admission.acquireWait).
func (p *Handles) AcquireWait(ctx context.Context) (*Thread, error) {
	var t *Thread
	err := p.acquireWait(ctx, func() (err error) {
		t, err = p.Acquire()
		return err
	})
	return t, err
}

// Release returns a handle to the domain (Thread.Release: the slot's
// reservations read empty to scanners, unreclaimed retires are donated
// for adoption, and the slot becomes re-leasable) and wakes the head
// AcquireWait waiter, if any. Must be called by the goroutine that
// acquired t; t must not be used afterwards.
func (p *Handles) Release(t *Thread) {
	// Bookkeeping before the slot is actually freed: once t.Release
	// returns, a concurrent Acquire can succeed, and counting ourselves
	// out afterwards would let InUse/Peak overshoot the domain's true
	// concurrency. The brief under-count in the other order is the safe
	// direction for a peak statistic.
	p.mu.Lock()
	p.inUse--
	p.mu.Unlock()
	t.Release()
	// Wake after the slot is genuinely free, so the woken waiter's
	// Acquire can succeed immediately.
	p.mu.Lock()
	p.signalLocked()
	p.mu.Unlock()
}

// Do acquires a handle, runs fn with it, and releases it — the
// lease-scoped convenience for short-lived workers.
func (p *Handles) Do(fn func(*Thread) error) error {
	t, err := p.Acquire()
	if err != nil {
		return err
	}
	defer p.Release(t)
	return fn(t)
}

// Cap returns the domain's slot capacity.
func (p *Handles) Cap() int { return p.d.MaxThreads() }
