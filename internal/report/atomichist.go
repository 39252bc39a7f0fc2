package report

import "sync/atomic"

// AtomicHistogram is the concurrent-writer variant of Histogram, with
// identical bucket geometry. Record is one atomic add per observation
// plus a CAS loop for the max, so many threads can record into one
// shared instance (the reclamation trace sites: any thread's pass may
// record into its domain's histogram). Snapshot produces a plain
// Histogram for quantiles and deltas.
//
// The zero value is an empty, ready-to-use histogram.
type AtomicHistogram struct {
	counts [histBuckets]atomic.Uint64
	max    atomic.Int64
}

// Record adds one observation (a duration in nanoseconds).
func (h *AtomicHistogram) Record(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Snapshot returns the recorded distribution as a plain Histogram.
// Concurrent Records may straddle the snapshot; each bucket is read
// atomically and buckets only grow, so successive snapshots are
// per-bucket monotone — exactly what Histogram.Sub needs for interval
// windows. The total is recomputed from the bucket reads so it is
// internally consistent with them.
func (h *AtomicHistogram) Snapshot() Histogram {
	var out Histogram
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		out.total += c
	}
	out.max = h.max.Load()
	return out
}
