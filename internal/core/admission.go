package core

import (
	"context"
	"errors"
	"sync"
)

// admission is the lease bookkeeping and FIFO admission queue shared by
// Handles and DomainGroup, which embed it: the in-use/peak/acquire/wait
// counters, and the wait loop that turns an ErrNoSlots-returning Acquire
// into a blocking one. The embedder's own state may share mu (DomainGroup
// guards its slot table with it, so an uncontended Acquire or Release
// still takes one mutex).
type admission struct {
	mu       sync.Mutex
	inUse    int
	peak     int
	acquires uint64
	waits    uint64          // acquireWait rounds that had to queue
	waiters  []chan struct{} // FIFO admission queue (buffered-1 wakeup tokens)
}

// admitLocked counts one successful lease (mu held).
func (a *admission) admitLocked() {
	a.inUse++
	a.acquires++
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
}

// acquireWait runs try — the embedder's non-blocking Acquire, which
// stores its result where the caller can see it — until it stops failing
// with ErrNoSlots, queueing FIFO in between; it returns try's final
// error, or ctx.Err() if ctx expires first.
//
// Wakeups are handed to waiters in queue order, but a woken waiter
// re-runs try and can lose the slot to a concurrent non-waiting Acquire;
// it then re-queues at the tail. Admission is therefore eventually fair
// under queued load, not strictly FIFO against line-jumpers.
func (a *admission) acquireWait(ctx context.Context, try func() error) error {
	for {
		if err := try(); !errors.Is(err, ErrNoSlots) {
			return err
		}
		w := make(chan struct{}, 1)
		a.mu.Lock()
		a.waiters = append(a.waiters, w)
		a.waits++
		a.mu.Unlock()
		// Re-try after enqueueing: a Release between the failed try above
		// and the enqueue would have seen an empty queue and woken nobody;
		// this second look closes that window.
		if err := try(); !errors.Is(err, ErrNoSlots) {
			a.abandonWait(w)
			return err
		}
		select {
		case <-w:
			// Woken by a Release: loop and contend for the freed slot.
		case <-ctx.Done():
			a.abandonWait(w)
			return ctx.Err()
		}
	}
}

// abandonWait removes w from the admission queue. If w was already
// popped and signalled, the wakeup token is forwarded to the next
// waiter so a cancelled waiter never swallows an admission.
func (a *admission) abandonWait(w chan struct{}) {
	a.mu.Lock()
	for i, x := range a.waiters {
		if x == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			a.mu.Unlock()
			return
		}
	}
	a.mu.Unlock()
	// Not queued ⇒ signalLocked already sent w its token (the send
	// happens under the lock we just held), so this receive cannot block.
	<-w
	a.mu.Lock()
	a.signalLocked()
	a.mu.Unlock()
}

// signalLocked pops the head waiter and hands it a wakeup token (mu
// held; the channels are buffered so the send never blocks).
func (a *admission) signalLocked() {
	if len(a.waiters) == 0 {
		return
	}
	w := a.waiters[0]
	a.waiters = a.waiters[1:]
	w <- struct{}{}
}

// InUse returns the number of leases currently held.
func (a *admission) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// Peak returns the maximum concurrently held leases seen.
func (a *admission) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Acquires returns the cumulative lease count (lease churn).
func (a *admission) Acquires() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acquires
}

// Waits returns how many AcquireWait calls found every slot leased and
// queued (each re-queue after losing a woken race counts again): the
// admission-queue pressure statistic.
func (a *admission) Waits() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waits
}

// Waiting returns the current admission-queue length.
func (a *admission) Waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}
