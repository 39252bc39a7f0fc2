package harness

import (
	"slices"
	"testing"
)

// TestSumTalliesMixedFolds sums tallies whose workers folded class
// counts of different lengths: none (a serve client's nil), the full
// width, and a nil leg after a counted one. Every count lands in the sum
// and nothing indexes past a shorter slice.
func TestSumTalliesMixedFolds(t *testing.T) {
	ts := newTallies(3, 2, func(int) bool { return true })
	ts[0].add(1, 1, 0, nil)
	ts[1].add(2, 3, 1, []uint64{2, 0})
	ts[1].add(1, 1, 0, nil)
	ts[2].add(4, 4, 0, []uint64{1, 3})
	ts[2].add(0, 0, 0, []uint64{0, 1})
	sum := sumTallies(ts)
	if sum.ops != 8 || sum.keys != 9 || sum.valueErrs != 1 {
		t.Fatalf("sum ops %d keys %d valueErrs %d, want 8 9 1", sum.ops, sum.keys, sum.valueErrs)
	}
	if want := []uint64{3, 4}; !slices.Equal(sum.byClass, want) {
		t.Fatalf("sum byClass %v, want %v", sum.byClass, want)
	}
	if len(sum.lats) != 2 {
		t.Fatalf("sum has %d latency classes, want 2", len(sum.lats))
	}
}
