package hmlist_test

import (
	"testing"

	"pop/internal/core"
	"pop/internal/ds/hmlist"
	"pop/internal/rng"
)

var walkSink uint64

// BenchmarkListWalk is the repository benchmark's list-read cell as a
// one-command microbenchmark: single-thread uniform Get over 2048 keys,
// half of them present, after 200K insert/delete churn ops have scattered
// the chain over the node slabs (so a hop is a dependent load from a
// list that fits in L2 but not in L1). ns/op over ~500 hops is the
// per-hop cost of Protect plus the walk, under every policy.
func BenchmarkListWalk(b *testing.B) {
	const keys = 2048
	for _, p := range core.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := core.NewDomain(p, 1, nil)
			th := d.RegisterThread()
			l := hmlist.New(d)
			r := rng.New(42)
			for k := int64(0); k < keys; k += 2 {
				l.PutIfAbsent(th, k, 0)
			}
			for i := 0; i < 200_000; i++ {
				if k := r.Intn(keys); r.Pct() < 50 {
					l.PutIfAbsent(th, k, 0)
				} else {
					l.Delete(th, k)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := l.Get(th, r.Intn(keys))
				walkSink += v
			}
		})
	}
}
