package store

import (
	"testing"

	"pop/internal/core"
	"pop/internal/rng"
	"pop/internal/workload"
)

// benchStore builds an 8-shard skiplist store under EpochPOP (one
// member domain, so batch-vs-sequential numbers isolate the batching)
// prefilled with keys, plus a ready batch of batchKeys keys.
func benchStore(b *testing.B, keys int64, batchKeys int) (*Store, *core.GroupHandle, []string) {
	b.Helper()
	g := core.NewDomainGroup(core.EpochPOP, 1, 1, nil)
	s, err := New(g, Config{Shards: 8, Backing: BackingSkipList})
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
// batched multi-put: one counting sort, one arena reservation pass and
// ONE protected operation per shard group (ds.BatchPutter), with
// replaced values retired in bulk. Every key is prefilled, so each
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
