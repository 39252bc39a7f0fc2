package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of nanosecond durations. Values below
// 2^(histSubBits+1) land in unit-wide buckets; above that every power of
// two is cut into 2^histSubBits equal buckets, so a bucket is never wider
// than 1/128 = 0.78% of its lower edge. The end-to-end bounds are 6–10%,
// and a quantile read off a coarser histogram (report.Histogram: 6.25%)
// would spend the whole bound on quantisation.
//
// Record is a shift, an add and an increment. One writer per hist; merge
// the per-worker ones after the slice.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits  = 7
	histMaxShift = 32 // values clamp at 2^40 ns (18 min)
	histBuckets  = (histMaxShift + 2) << histSubBits
	histMax      = int64(1)<<(histMaxShift+histSubBits+1) - 1
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	} else if v > histMax {
		v = histMax
	}
	shift := bits.Len64(uint64(v)) - (histSubBits + 1)
	if shift < 0 {
		shift = 0
	}
	return shift<<histSubBits + int(v>>uint(shift))
}

// histBounds returns bucket i's lower edge and width.
func histBounds(i int) (low, width float64) {
	if i < 2<<histSubBits {
		return float64(i), 1
	}
	shift := uint(i>>histSubBits - 1)
	sub := int64(i&(1<<histSubBits-1) | 1<<histSubBits)
	return float64(sub << shift), float64(int64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q <= 1), interpolated linearly
// inside the bucket holding the rank. NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			low, width := histBounds(i)
			return low + width*(rank-cum)/float64(c)
		} else {
			cum = next
		}
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}
