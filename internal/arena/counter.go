package arena

import "sync/atomic"

// Counter is an event count with one writer at a time: a thread cache's
// allocs and frees, or one store slot's per-shard operation counts. Add
// is a load and a release store, with no read-modify-write instruction
// and no cache line another writer shares, and Load is safe from any
// goroutine. A count that passes between owners (a thread slot leased
// again) must pass through a happens-before edge, as a lease does.
type Counter struct{ n uint64 }

// Add adds d. Only the counter's current owner may call it.
func (c *Counter) Add(d uint64) { storeRelease(&c.n, atomic.LoadUint64(&c.n)+d) }

// Load returns the count.
func (c *Counter) Load() uint64 { return atomic.LoadUint64(&c.n) }
