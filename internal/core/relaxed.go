//go:build !race

package core

import "unsafe"

// storeRelaxed publishes p to a shared word with a plain store. This is
// the Go spelling of C++ memory_order_relaxed/release on amd64 (a MOV):
// it is exactly the reader-side cost model of Folly's hazard pointers,
// whose fast path the paper's HPAsym baseline reproduces. The Go memory
// model classifies a concurrent plain store/atomic load pair as a data
// race; the pairing is sound here because (a) the word is pointer-sized
// and aligned, so hardware tearing cannot occur on any supported
// architecture, and (b) the reclaimer orders itself against the store
// with the membarrier substitution (see hpasym.go) before acting on the
// value, and a stale read is conservative (it only prevents a free).
// Under `go test -race` the relaxed_race.go variant substitutes an atomic
// store so the detector stays clean.
func storeRelaxed(addr *unsafe.Pointer, p unsafe.Pointer) {
	*addr = p
}

// storeRelaxedWord is storeRelaxed for a reservation word (HPAsym's
// publish and clear): the same plain store, to a word the collector does
// not trace.
func storeRelaxedWord(addr *uintptr, v uintptr) {
	*addr = v
}
