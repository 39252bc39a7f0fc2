package main

import (
	"math"
	"sort"
	"testing"

	"pop/internal/rng"
)

func TestHistBucketsAreNarrowAndContiguous(t *testing.T) {
	next := 0.0
	for i := 0; i < histBuckets; i++ {
		low, width := histBounds(i)
		if low != next {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, low, next)
		}
		if low > 0 && width/low > 0.01 && width > 1 {
			t.Fatalf("bucket %d [%v,+%v) is %.2f%% wide", i, low, width, 100*width/low)
		}
		if got := histIndex(int64(low)); got != i {
			t.Fatalf("histIndex(%v) = %d, want %d", low, got, i)
		}
		if got := histIndex(int64(low + width - 1)); got != i {
			t.Fatalf("histIndex(%v) = %d, want %d", low+width-1, got, i)
		}
		next = low + width
	}
	if histIndex(math.MaxInt64) != histBuckets-1 || histIndex(-5) != 0 {
		t.Fatal("out-of-range values do not clamp")
	}
}

// TestHistQuantilesAgainstExact records a seeded, long-tailed sample and
// compares every reported quantile with the exact one from the sorted
// sample: the error must stay inside the 1% bucket width.
func TestHistQuantilesAgainstExact(t *testing.T) {
	r := rng.New(20260926)
	var h hist
	sample := make([]float64, 200_000)
	for i := range sample {
		// Log-uniform over 200 ns .. 6 ms, the span from a store get to a
		// purge walk.
		v := int64(200 * math.Exp(float64(r.Intn(1<<20))/(1<<20)*math.Log(30_000)))
		sample[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := sample[int(math.Ceil(q*float64(len(sample))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-exact) / exact; err > 0.01 {
			t.Errorf("q%.3f: hist %.1f, exact %.1f (%.2f%% off)", q, got, exact, 100*err)
		}
	}
	var two hist
	two.merge(&h)
	two.merge(&h)
	if two.n != 2*h.n || two.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge: n=%d median %.1f, want n=%d median %.1f", two.n, two.quantile(0.5), 2*h.n, h.quantile(0.5))
	}
	if !math.IsNaN(new(hist).quantile(0.5)) {
		t.Error("empty histogram has a median")
	}
}
