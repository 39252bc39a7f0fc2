package core

import (
	"context"
	"testing"
	"time"
)

// TestAcquireWaitCancelAfterSignal reaches abandonWait's forward path:
// a waiter whose context expires after Release already popped it and
// handed it the wakeup token must pass that token to the next waiter.
// Swallowing it would leave a free slot and a parked waiter that no
// later Release is coming for.
//
// Through AcquireWait alone the order "signalled, then cancelled" is a
// coin toss (a select with both cases ready), so waiter A is enqueued by
// hand, the way AcquireWait enqueues, and its cancellation is the direct
// abandonWait call AcquireWait makes on ctx.Done. Waiter B behind it is
// a real AcquireWait.
func TestAcquireWaitCancelAfterSignal(t *testing.T) {
	g := NewDomainGroup(EBR, 1, 1, nil)
	holder, err := g.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	a := make(chan struct{}, 1)
	g.mu.Lock()
	g.waiters = append(g.waiters, a)
	g.waits++
	g.mu.Unlock()

	admitted := make(chan *GroupHandle, 1)
	go func() {
		h, err := g.AcquireWait(context.Background())
		if err != nil {
			t.Errorf("AcquireWait: %v", err)
		}
		admitted <- h
	}()
	deadline := time.After(5 * time.Second)
	for g.Waiting() != 2 {
		select {
		case <-deadline:
			t.Fatalf("second waiter never queued (Waiting = %d)", g.Waiting())
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The release signals the head, A; B stays parked although the slot
	// is free — exactly the state a swallowed token would leave for good.
	g.Release(holder)
	if len(a) != 1 || g.Waiting() != 1 {
		t.Fatalf("after Release: token sent = %d, Waiting = %d, want 1, 1", len(a), g.Waiting())
	}
	select {
	case <-admitted:
		t.Fatal("second waiter admitted without a wakeup: the test no longer depends on the forward")
	case <-time.After(10 * time.Millisecond):
	}

	g.abandonWait(a) // A's context expires now, after the signal
	select {
	case h := <-admitted:
		if h == nil {
			t.Fatal("forwarded waiter got no handle")
		}
		g.Release(h)
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter swallowed the wakeup: the next waiter is still parked beside a free slot")
	}
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("after forward: InUse=%d Waiting=%d, want 0, 0", g.InUse(), g.Waiting())
	}
}
