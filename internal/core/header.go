package core

import (
	"sync/atomic"
	"unsafe"
)

// Header is embedded (by value, typically as the first field) in every
// node managed by a Domain. It carries the lifetime metadata the era-based
// algorithms need and the retire-state bit used for double-retire and
// double-free detection.
type Header struct {
	// BirthEra is the global era at allocation (stamped by Thread.OnAlloc;
	// used by HE, IBR and the POP era variant).
	BirthEra uint64
	// RetireEra is the global era at retirement (stamped by Thread.Retire).
	RetireEra uint64
	// Type is the node-type id from Domain.RegisterType; it selects the
	// free function when the node is reclaimed.
	Type uint8

	// retiredFlag is 1 between Retire and free. It exists purely to turn
	// double retires and double frees into immediate panics instead of
	// silent corruption.
	retiredFlag atomic.Uint32
}

// Atomic is a CAS-able cell holding a (possibly tag-marked) node pointer.
// It is the only way data structures read or write shared links, which
// lets the reclamation layer own the memory-ordering story.
type Atomic struct {
	p unsafe.Pointer
}

// Load atomically reads the cell.
func (a *Atomic) Load() unsafe.Pointer { return atomic.LoadPointer(&a.p) }

// Store atomically writes the cell.
func (a *Atomic) Store(p unsafe.Pointer) { atomic.StorePointer(&a.p, p) }

// CompareAndSwap atomically replaces old with new and reports success.
func (a *Atomic) CompareAndSwap(old, new unsafe.Pointer) bool {
	return atomic.CompareAndSwapPointer(&a.p, old, new)
}

// Raw initialises the cell with a plain store (no fence). Only valid
// while the cell is unpublished (node initialisation) — but note that a
// *recycled* node's cells can still be loaded by an NBR-neutralized
// thread that held the node before it was freed: that thread's read
// value is discarded at its restart (EnterWritePhase/Protect gate every
// use), and a word-sized aligned store cannot tear, so the pairing is
// sound. It is still formally a data race, so race builds substitute an
// atomic store via storeRelaxed (the same shim HPAsym's publication
// uses; see relaxed.go).
func (a *Atomic) Raw(p unsafe.Pointer) { storeRelaxed(&a.p, p) }

// Marked reports whether the low-order tag bit is set (Harris-Michael's
// logical-deletion mark).
func Marked(p unsafe.Pointer) bool { return uintptr(p)&1 != 0 }

// WithMark returns p with the low-order tag bit set. p must be an
// unmarked, word-aligned, non-nil node pointer: data structures that mark
// links terminate them with sentinel nodes, never nil, so a marked nil
// cannot arise. The tagged value remains a valid interior pointer of the
// node's arena slab, so it is safe to store in pointer-typed shared cells.
// (unsafe.Add rather than a uintptr round-trip: the result provably stays
// inside the node's allocation, which both vet and the GC accept.)
func WithMark(p unsafe.Pointer) unsafe.Pointer {
	if p == nil {
		panic("core: WithMark(nil): marked links must use sentinel tails")
	}
	return unsafe.Add(p, 1)
}
