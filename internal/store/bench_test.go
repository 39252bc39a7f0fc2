package store

import (
	"testing"

	"pop/internal/core"
	"pop/internal/rng"
	"pop/internal/workload"
)

// benchStore builds the default 8-shard hash-table store under EpochPOP (one
// member domain, so batch-vs-sequential numbers isolate the batching)
// prefilled with keys, plus a ready batch of batchKeys keys.
func benchStore(b *testing.B, keys int64, batchKeys int) (*Store, *core.GroupHandle, []string) {
	b.Helper()
	g := core.NewDomainGroup(core.EpochPOP, 1, 1, nil)
	s, err := New(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := s.Acquire()
	if err != nil {
		b.Fatal(err)
	}
	var vbuf []byte
	for i := int64(0); i < keys; i++ {
		key := workload.KeyString(i)
		vbuf = workload.AppendValueBytes(vbuf[:0], KeyHash(key), uint32(i), 64)
		s.Put(h, key, vbuf)
	}
	r := rng.New(0xba7c)
	kb := make([]string, batchKeys)
	for i := range kb {
		kb[i] = workload.KeyString(r.Intn(keys))
	}
	return s, h, kb
}

// BenchmarkStorePutBatch upserts 64 keys per iteration through the
// batched multi-put: one protected operation per member domain (one
// here, ds.InOp), each replaced value freeing with the node its upsert
// retired. Every key is prefilled, so each
// iteration does 64 overwrite+retire cycles — compare ns/op with
// BenchmarkStoreSequentialPut64, the identical work as 64 Puts.
func BenchmarkStorePutBatch(b *testing.B) {
	s, h, kb := benchStore(b, 1<<10, 64)
	vals := make([][]byte, len(kb))
	for i, key := range kb {
		vals[i] = workload.AppendValueBytes(nil, KeyHash(key), uint32(i), 64)
	}
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PutBatch(h, kb, vals, &batch)
	}
	b.StopTimer()
	h.Flush()
}

// BenchmarkStoreSequentialPut64 is BenchmarkStorePutBatch's baseline:
// the identical 64 overwrites served one protected operation each.
func BenchmarkStoreSequentialPut64(b *testing.B) {
	s, h, kb := benchStore(b, 1<<10, 64)
	vals := make([][]byte, len(kb))
	for i, key := range kb {
		vals[i] = workload.AppendValueBytes(nil, KeyHash(key), uint32(i), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, key := range kb {
			s.Put(h, key, vals[j])
		}
	}
	b.StopTimer()
	h.Flush()
}

// store1M is the store BenchmarkStoreGet1M and BenchmarkStorePut1M
// share, built once per process: its prefill takes longer than a
// measured run. vals holds a 64-byte payload per drawn key, built on
// the first Put1M.
var store1M struct {
	s    *Store
	h    *core.GroupHandle
	keys []string
	vals [][]byte
}

// open1M builds store1M on first use.
func open1M(b *testing.B) (*Store, *core.GroupHandle, []string) {
	if store1M.s == nil {
		store1M.s, store1M.h, store1M.keys = benchStore(b, 1<<20, 1<<18)
	}
	return store1M.s, store1M.h, store1M.keys
}

// BenchmarkStoreGet1M is one Get of a uniformly drawn key in the
// default store holding 1M keys with 64-byte values: a working set far
// beyond cache, where the bucket chain walk and the value slot's cache
// lines are the cost. The drawn keys are allocated in the order they are
// read, so walking them adds no misses of its own. Pin it to one CPU
// and pass -benchtime Nx (e.g. 2000000x) to prefill once per process.
func BenchmarkStoreGet1M(b *testing.B) {
	s, h, kb := open1M(b)
	var buf []byte
	var ok bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, ok = s.Get(h, kb[i&(len(kb)-1)], buf); !ok {
			b.Fatal("a prefilled key missed")
		}
	}
}

// BenchmarkStorePut1M is one overwrite of a uniformly drawn key in the
// store of BenchmarkStoreGet1M with a fresh 64-byte value: an arena
// slot written and published, a node linked, and the replaced node
// (with its value slot) retired and, a pass later, freed. Run it like
// Get1M: pinned, with -benchtime Nx.
func BenchmarkStorePut1M(b *testing.B) {
	s, h, kb := open1M(b)
	if store1M.vals == nil {
		store1M.vals = make([][]byte, len(kb))
		for i, key := range kb {
			store1M.vals[i] = workload.AppendValueBytes(nil, KeyHash(key), uint32(i), 64)
		}
	}
	vals := store1M.vals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(kb) - 1)
		s.Put(h, kb[j], vals[j])
	}
}

// batches16 cuts the first 4096×16 of store1M's drawn keys into 16-key
// batches: uniform draws over the 1M keys, fixed per process.
func batches16(kb []string) [][]string {
	bs := make([][]string, 4096)
	for i := range bs {
		bs[i] = kb[16*i : 16*(i+1)]
	}
	return bs
}

// BenchmarkStoreGetBatch16 is one GetBatch of 16 uniformly drawn keys
// in the store of BenchmarkStoreGet1M (one member domain, so the batch
// is one protected operation): ns/op is per batch. Compare it with
// BenchmarkStoreGet16, the same keys as 16 Gets. Run it like Get1M:
// pinned, with -benchtime Nx.
func BenchmarkStoreGetBatch16(b *testing.B) {
	s, h, kb := open1M(b)
	bs := batches16(kb)
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := bs[i&(len(bs)-1)]
		s.GetBatch(h, keys, &batch)
		for j := range keys {
			if !batch.OK[j] {
				b.Fatal("a prefilled key missed")
			}
		}
	}
}

// BenchmarkStoreGet16 is BenchmarkStoreGetBatch16's control: the same
// 16 keys per iteration, served by 16 Gets.
func BenchmarkStoreGet16(b *testing.B) {
	s, h, kb := open1M(b)
	bs := batches16(kb)
	var buf []byte
	var ok bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range bs[i&(len(bs)-1)] {
			if buf, ok = s.Get(h, key, buf); !ok {
				b.Fatal("a prefilled key missed")
			}
		}
	}
}
