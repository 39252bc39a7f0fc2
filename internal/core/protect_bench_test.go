package core_test

import (
	"testing"
	"unsafe"

	"pop/internal/core"
)

var protectSink unsafe.Pointer

// BenchmarkProtect is the floor of the read path: ns per Thread.Protect
// of one L1-resident cell inside one long operation, no reclaimer, under
// every policy. What a hop costs above this is the traversal's own loads
// (BenchmarkListWalk in hmlist is the same hop with a cache miss under it).
func BenchmarkProtect(b *testing.B) {
	for _, p := range core.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := core.NewDomain(p, 1, nil)
			th := d.RegisterThread()
			var cell core.Atomic
			cell.Store(unsafe.Pointer(new(tnode)))
			th.StartOp()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				protectSink, _ = th.Protect(i&1, &cell)
			}
			b.StopTimer()
			th.EndOp()
		})
	}
}
