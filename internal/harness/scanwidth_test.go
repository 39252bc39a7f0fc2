package harness

import (
	"math"
	"testing"
)

// TestScanWidth pins the hashed-key window a scan of span pairs covers,
// as a fraction of the 2^64-wide key space: span/(keys/2) while that is
// below one, and the whole space — not a wrapped-around sliver — once a
// scan asks for more pairs than half the population holds.
func TestScanWidth(t *testing.T) {
	for _, c := range []struct {
		keys int64
		span int
		want float64
	}{
		{8192, 32, 32.0 / 4096},      // the default store cell
		{100, 64, 1},                 // span above the 50 live keys: wrapped to 0.28
		{2048, 1500, 1},              // a trace scan over 1 024 live keys: wrapped to 0.465
		{2048, 1024, 1},              // exactly the live population
		{2048, 512, 0.5},             // half of it
		{1, 1, 1},                    // a one-key store: live clamps to 1
		{8192, 0, 1 / math.Exp2(64)}, // an empty span is still a non-empty window
	} {
		w := scanWidth(c.keys, c.span)
		got := float64(w) / math.Exp2(64)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scanWidth(%d, %d) = %#x, covers %.6f of the key space, want %.6f",
				c.keys, c.span, w, got, c.want)
		}
	}
	if w := scanWidth(100, 64); w != math.MaxUint64 {
		t.Errorf("scanWidth(100, 64) = %#x, want the saturated %#x", w, uint64(math.MaxUint64))
	}
}
