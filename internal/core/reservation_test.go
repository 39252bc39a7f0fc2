package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestReservationWordsUntraced pins the pointer reservations as words the
// garbage collector does not trace: a pointer-typed element would put a
// write barrier on the private store of every POP read.
func TestReservationWordsUntraced(t *testing.T) {
	for _, name := range []string{"localPtrs", "sharedPtrs"} {
		f, ok := reflect.TypeOf(Thread{}).FieldByName(name)
		if !ok {
			t.Fatalf("Thread has no field %s", name)
		}
		if k := f.Type.Elem().Kind(); k != reflect.Uintptr {
			t.Errorf("Thread.%s holds %v elements, want uintptr (no pointer the collector traces)", name, k)
		}
	}
}

// TestTryProtectRaisesHiSlot: a reservation TryProtect stores in the
// highest slot is cleared by EndOp, so the next answered ping publishes
// nothing. A TryProtect that did not raise hiSlot would leave it to be
// published.
func TestTryProtectRaisesHiSlot(t *testing.T) {
	for _, p := range []Policy{HazardPtrPOP, EpochPOP} {
		d := NewDomain(p, 1, nil)
		th := d.RegisterThread()
		var cell Atomic
		cell.Store(unsafe.Pointer(new(Header)))
		th.StartOp()
		if _, ok := th.TryProtect(MaxSlots-1, &cell); !ok {
			t.Fatalf("%v: TryProtect(slot %d) decided nothing with no ping pending", p, MaxSlots-1)
		}
		th.EndOp()
		before := th.pubCount.Load()
		th.ping.Store(1)
		th.Poll()
		if th.pubCount.Load() == before {
			t.Fatalf("%v: the ping was not answered", p)
		}
		for i, w := range th.sharedPtrs {
			if w != 0 {
				t.Errorf("%v: shared slot %d published %#x after EndOp, want 0", p, i, w)
			}
		}
	}
}
