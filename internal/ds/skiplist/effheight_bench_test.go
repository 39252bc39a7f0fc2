package skiplist

import (
	"testing"

	"pop/internal/core"
	"pop/internal/rng"
)

// Index-vs-head-walk microbenchmarks: the default single-op paths seed
// the bottom-layer walk with an index hint (O(log n) column hops, no
// protections until the final hop), while the *HeadWalk variants drive
// the identical hmlist in-op bodies with a nil hint — the pure
// Harris-Michael walk every operation would pay without the index. At
// 1K keys that is ~512 protected hops per op versus ~5 column hops plus
// a short protected tail, the before/after pair for the index's win.
//
// The indexed pair also runs at 128K keys: 1K keys of index and nodes sit
// in L1, where a descent costs the same whatever the column layout, while
// at 128K every column a descent visits is a cache miss — the size that
// shows what a column costs in memory. Keys are visited in a fixed-seed
// shuffled order at both sizes (an ascending order would keep every
// descent on the previous one's warm path).

const effKeys = 1 << 10

var indexedSizes = []struct {
	name string
	keys int64
}{{"1K", effKeys}, {"128K", 128 << 10}}

func prefill(b *testing.B, keys int64) (*List, *core.Thread) {
	b.Helper()
	d := core.NewDomain(core.EBR, 1, nil)
	l := New(d)
	th := d.RegisterThread()
	for k := int64(0); k < keys; k++ {
		l.PutIfAbsent(th, k, uint64(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	return l, th
}

// shuffled returns 0…keys-1 in an order fixed by the seed.
func shuffled(keys int64) []int64 {
	order := make([]int64, keys)
	for i := range order {
		order[i] = int64(i)
	}
	r := rng.New(0x5eed)
	for i := keys - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func BenchmarkGetIndexed(b *testing.B) {
	for _, sz := range indexedSizes {
		b.Run(sz.name, func(b *testing.B) {
			order := shuffled(sz.keys)
			l, th := prefill(b, sz.keys)
			for i := 0; i < b.N; i++ {
				if _, ok := l.Get(th, order[i%len(order)]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkGetHeadWalk is the same protected lookup body with the index
// bypassed: every descent walks the bottom layer from the head.
func BenchmarkGetHeadWalk(b *testing.B) {
	l, th := prefill(b, effKeys)
	for i := 0; i < b.N; i++ {
		key := int64(i) % effKeys
		th.StartOp()
		_, present, _ := l.b.GetInOpHinted(th, key, nil, 0)
		th.EndOp()
		if !present {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPutIndexed(b *testing.B) {
	for _, sz := range indexedSizes {
		b.Run(sz.name, func(b *testing.B) {
			order := shuffled(sz.keys)
			l, th := prefill(b, sz.keys)
			for i := 0; i < b.N; i++ {
				l.Put(th, order[i%len(order)], uint64(i))
			}
		})
	}
}

// BenchmarkPutHeadWalk is the upsert body with the index bypassed: the
// overwrite walks from the head, and the published replacement still
// links its column (the index must stay coherent for the purge hook).
func BenchmarkPutHeadWalk(b *testing.B) {
	l, th := prefill(b, effKeys)
	for i := 0; i < b.N; i++ {
		key := int64(i) % effKeys
		th.StartOp()
		out, _ := l.b.PutInOpHinted(th, key, uint64(i), true, nil, 0)
		if out.New != nil {
			l.linkIndex(th, out.New, key)
			l.b.FinishLinking(th, out.New)
		}
		th.EndOp()
	}
}
