//go:build race

package core

import (
	"sync/atomic"
	"unsafe"
)

// storeRelaxed under the race detector uses a sequentially consistent
// store so `go test -race` is clean. This makes HPAsym's read path
// cost-identical to HP's in race builds — acceptable, because race builds
// exist to validate correctness, not performance. See relaxed.go for the
// performance build.
func storeRelaxed(addr *unsafe.Pointer, p unsafe.Pointer) {
	atomic.StorePointer(addr, p)
}

// storeRelaxedWord is storeRelaxed for a reservation word.
func storeRelaxedWord(addr *uintptr, v uintptr) {
	atomic.StoreUintptr(addr, v)
}
