package report

import (
	"math"
	"testing"
)

// TestBucketBoundaries pins the index function to its contract: values
// below histSub are exact; above, buckets are power-of-two groups of
// histSub linear sub-buckets; bucketLow/bucketIndex are inverse at
// every boundary.
func TestBucketBoundaries(t *testing.T) {
	// Exact region.
	for v := int64(0); v < histSub; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, got)
		}
	}
	// First grouped bucket starts exactly at histSub with width 1.
	if got := bucketIndex(histSub); got != histSub {
		t.Fatalf("bucketIndex(histSub) = %d, want %d", got, histSub)
	}
	// Every bucket's low bound must map back to that bucket, and the
	// value one below must map to the previous bucket.
	for idx := 1; idx < histBuckets; idx++ {
		lo := bucketLow(idx)
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", idx, lo, got)
		}
		if got := bucketIndex(lo - 1); got != idx-1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo-1, got, idx-1)
		}
	}
	// Doubling the value past the linear region advances exactly one
	// group (histSub buckets).
	for _, v := range []int64{64, 1024, 1 << 20, 1 << 30} {
		if got, want := bucketIndex(2*v), bucketIndex(v)+histSub; got != want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", 2*v, got, want)
		}
	}
	// Relative bucket width is bounded by 1/histSub everywhere.
	for idx := histSub; idx < histBuckets-1; idx++ {
		lo, hi := bucketLow(idx), bucketLow(idx+1)
		if float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Fatalf("bucket %d: width %d at magnitude %d exceeds 1/%d relative error", idx, hi-lo, lo, histSub)
		}
	}
	// Negative and huge values clamp instead of panicking.
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
	if got := bucketIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want top bucket %d", got, histBuckets-1)
	}
}

// TestQuantileInterpolation checks the quantile math on distributions
// with known answers.
func TestQuantileInterpolation(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}

	// Uniform 1..1000: quantiles must track q*1000 within bucket error
	// (6.25%) everywhere.
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), q*1000
		if math.Abs(got-want) > want/histSub+1 {
			t.Fatalf("uniform Quantile(%v) = %v, want %v ± %v", q, got, want, want/histSub+1)
		}
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %v, want exact max 1000", got)
	}
	// Out-of-range q clamps.
	if got := h.Quantile(2); got != 1000 {
		t.Fatalf("Quantile(2) = %v, want 1000", got)
	}
	if got := h.Quantile(-1); got > 2 {
		t.Fatalf("Quantile(-1) = %v, want ~min", got)
	}

	// Interpolation within one bucket: two observations in exact
	// (width-1) buckets snap to their values; the median of {2, 4}
	// falls between them.
	var h2 Histogram
	h2.Record(2)
	h2.Record(4)
	if got := h2.Quantile(0.5); got < 2 || got > 4 {
		t.Fatalf("Quantile(0.5) of {2,4} = %v, want within [2,4]", got)
	}
	if got := h2.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) of {2,4} = %v, want 4", got)
	}

	// A spike distribution: 99 fast ops at 100ns, 1 slow at ~1ms. p50
	// must sit at the spike, p995+ at the tail.
	var h3 Histogram
	for i := 0; i < 99; i++ {
		h3.Record(100)
	}
	h3.Record(1_000_000)
	if got := h3.Quantile(0.5); math.Abs(got-100) > 100.0/histSub+1 {
		t.Fatalf("spike Quantile(0.5) = %v, want ~100", got)
	}
	if got := h3.Quantile(0.995); got < 900_000 {
		t.Fatalf("spike Quantile(0.995) = %v, want ~1e6", got)
	}
}

// TestHistogramMerge: merging per-thread histograms must be equivalent
// to recording everything into one.
func TestHistogramMerge(t *testing.T) {
	var whole, part1, part2 Histogram
	for v := int64(1); v <= 3000; v++ {
		whole.Record(v)
		if v%2 == 0 {
			part1.Record(v)
		} else {
			part2.Record(v)
		}
	}
	var merged Histogram
	merged.Merge(&part1)
	merged.Merge(&part2)
	if merged.Count() != whole.Count() {
		t.Fatalf("merged Count = %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Max() != whole.Max() {
		t.Fatalf("merged Max = %d, want %d", merged.Max(), whole.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("merged Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if merged.counts != whole.counts {
		t.Fatal("merged bucket counts differ from whole-history counts")
	}
	// Merging an empty histogram is a no-op.
	var empty Histogram
	before := merged.Count()
	merged.Merge(&empty)
	if merged.Count() != before {
		t.Fatal("merging an empty histogram changed the count")
	}
}

// TestHistogramSub: Sub of an earlier snapshot must recover exactly the
// observations recorded between the snapshots, and Merge must invert it
// (the merge/delta round trip interval samplers rely on).
func TestHistogramSub(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 500; v++ {
		h.Record(v)
	}
	snap := h // first snapshot
	for v := int64(2000); v <= 2300; v++ {
		h.Record(v)
	}
	d := h.Sub(&snap)
	if d.Count() != 301 {
		t.Fatalf("window Count = %d, want 301", d.Count())
	}
	// The window's counts must be bucket-identical to recording the
	// window's observations alone.
	var want Histogram
	for v := int64(2000); v <= 2300; v++ {
		want.Record(v)
	}
	if d.counts != want.counts {
		t.Fatal("window bucket counts differ from a fresh recording of the window")
	}
	// h.max (2300) falls in the window's highest occupied bucket, so the
	// window max is exact.
	if d.Max() != 2300 {
		t.Fatalf("window Max = %d, want exact 2300", d.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if got, w := d.Quantile(q), want.Quantile(q); got != w {
			t.Fatalf("window Quantile(%v) = %v, want %v", q, got, w)
		}
	}
	// Round trip: snapshot + window == whole history.
	rt := snap
	rt.Merge(&d)
	if rt.counts != h.counts || rt.Count() != h.Count() || rt.Max() != h.Max() {
		t.Fatal("snap.Merge(h.Sub(snap)) does not reproduce h")
	}
	// Empty window: no observations between identical snapshots.
	e := h.Sub(&h)
	if e.Count() != 0 || e.Max() != 0 {
		t.Fatalf("self-Sub = count %d max %d, want empty", e.Count(), e.Max())
	}
	// A window whose observations all precede the history max: the max
	// is bounded by the highest occupied bucket, not h's max.
	var h2 Histogram
	h2.Record(1 << 20) // old tail
	snap2 := h2
	h2.Record(100)
	d2 := h2.Sub(&snap2)
	if d2.Count() != 1 {
		t.Fatalf("window Count = %d, want 1", d2.Count())
	}
	if d2.Max() < 100 || d2.Max() >= 1<<20 {
		t.Fatalf("window Max = %d, want ~100 (bucket upper bound), not the stale history max", d2.Max())
	}
}

// TestAtomicHistogram: concurrent Records must all land, and interval
// snapshots must telescope (Sub of successive snapshots sums to the
// final snapshot).
func TestAtomicHistogram(t *testing.T) {
	var ah AtomicHistogram
	const writers, per = 8, 10000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				ah.Record(int64(w*per + i))
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	snap := ah.Snapshot()
	if snap.Count() != writers*per {
		t.Fatalf("Count = %d, want %d", snap.Count(), writers*per)
	}
	if snap.Max() != writers*per-1 {
		t.Fatalf("Max = %d, want %d", snap.Max(), writers*per-1)
	}
	// Interval telescoping: base + Σ windows == final.
	var ah2 AtomicHistogram
	base := ah2.Snapshot()
	acc := base
	for round := 0; round < 5; round++ {
		prev := ah2.Snapshot()
		for i := 0; i < 100; i++ {
			ah2.Record(int64(round*1000 + i))
		}
		cur := ah2.Snapshot()
		w := cur.Sub(&prev)
		if w.Count() != 100 {
			t.Fatalf("round %d window Count = %d, want 100", round, w.Count())
		}
		acc.Merge(&w)
	}
	if fin := ah2.Snapshot(); acc.counts != fin.counts || acc.Count() != fin.Count() {
		t.Fatal("base + Σ interval windows does not telescope to the final snapshot")
	}
}

func TestMergeAll(t *testing.T) {
	if got := MergeAll(nil, nil); got != nil {
		t.Fatal("MergeAll of all-nil inputs must be nil")
	}
	a, b := new(Histogram), new(Histogram)
	a.Record(10)
	a.Record(20)
	b.Record(30)
	m := MergeAll(a, nil, b)
	if m == nil || m.Count() != 3 {
		t.Fatalf("MergeAll count = %v, want 3", m.Count())
	}
	if m.Max() != 30 {
		t.Fatalf("MergeAll max = %d, want 30", m.Max())
	}
	// Inputs must be untouched and the result independent.
	if a.Count() != 2 || b.Count() != 1 {
		t.Fatal("MergeAll mutated its inputs")
	}
	m.Record(40)
	if a.Max() == 40 || b.Max() == 40 {
		t.Fatal("MergeAll result aliases an input")
	}
}
