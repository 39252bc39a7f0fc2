package rng_test

import (
	"sync"
	"testing"
	"unsafe"

	"pop/internal/padded"
	"pop/internal/rng"
)

// TestStateOwnsItsLines pins promise (c) of the package doc: a State is
// whole padded.CacheLine units, and states from consecutive New calls
// never place two of them inside one padded.CacheLine.
func TestStateOwnsItsLines(t *testing.T) {
	size := unsafe.Sizeof(rng.State{})
	if size%padded.CacheLine != 0 {
		t.Fatalf("Sizeof(State) = %d, not a multiple of %d", size, padded.CacheLine)
	}
	states := make([]*rng.State, 64)
	owner := map[uintptr]int{}
	for i := range states {
		states[i] = rng.New(uint64(i))
		a := uintptr(unsafe.Pointer(states[i]))
		for l := a / padded.CacheLine; l <= (a+size-1)/padded.CacheLine; l++ {
			if j, ok := owner[l]; ok {
				t.Fatalf("states %d and %d share the line at %#x", j, i, l*padded.CacheLine)
			}
			owner[l] = i
		}
	}
}

// neighbourSinks keeps BenchmarkUint64Neighbours' draws live.
var neighbourSinks [2]uint64

// BenchmarkUint64Neighbours draws from two consecutively allocated
// states on two goroutines at once, one state each: the cost of a draw
// when a neighbour's generator is busy. With the states on one cache
// line every draw would move that line between cores.
func BenchmarkUint64Neighbours(b *testing.B) {
	states := [2]*rng.State{rng.New(1), rng.New(2)}
	var wg sync.WaitGroup
	b.ResetTimer()
	for i, r := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x uint64
			for range b.N {
				x += r.Uint64()
			}
			neighbourSinks[i] = x
		}()
	}
	wg.Wait()
}
