package padded_test

import (
	"sync"
	"testing"
	"unsafe"

	"pop/internal/padded"
)

func TestSizesDefeatFalseSharing(t *testing.T) {
	// Each padded cell must span at least two 64-byte lines so adjacent
	// cells in an array can never share a prefetched line pair.
	if s := unsafe.Sizeof(padded.Uint64{}); s < 2*64 {
		t.Fatalf("padded.Uint64 is %d bytes", s)
	}
	if s := unsafe.Sizeof(padded.Uint32{}); s < 2*64 {
		t.Fatalf("padded.Uint32 is %d bytes", s)
	}
	if s := unsafe.Sizeof(padded.Int64{}); s < 2*64 {
		t.Fatalf("padded.Int64 is %d bytes", s)
	}
}

func TestUint64Ops(t *testing.T) {
	var v padded.Uint64
	v.Store(10)
	if v.Load() != 10 {
		t.Fatal("store/load")
	}
	if v.Add(5) != 15 {
		t.Fatal("add")
	}
}

func TestUint32Ops(t *testing.T) {
	var v padded.Uint32
	v.Store(3)
	if v.Load() != 3 {
		t.Fatal("uint32 store/load")
	}
}

func TestInt64Negative(t *testing.T) {
	var v padded.Int64
	v.Store(-5)
	if v.Add(-5) != -10 || v.Load() != -10 {
		t.Fatal("int64 negative arithmetic")
	}
}

func TestConcurrentAdders(t *testing.T) {
	var v padded.Uint64
	var wg sync.WaitGroup
	const workers, adds = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				v.Add(1)
			}
		}()
	}
	wg.Wait()
	if v.Load() != workers*adds {
		t.Fatalf("lost updates: %d", v.Load())
	}
}
