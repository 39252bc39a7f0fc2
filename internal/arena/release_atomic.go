//go:build !amd64 || race

package arena

import "sync/atomic"

// storeRelease is an atomic store off amd64, where a plain store is not
// a release, and under the race detector, which must see the pairing
// with the readers' atomic loads (see release.go).
func storeRelease(p *uint64, v uint64) { atomic.StoreUint64(p, v) }
