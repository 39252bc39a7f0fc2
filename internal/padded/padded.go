// Package padded provides cache-line padded atomic primitives.
//
// Safe memory reclamation algorithms are dominated by single-writer
// multi-reader (SWMR) per-thread words: reservation slots, publish
// counters, announced epochs. If two threads' words share a cache line,
// false sharing serialises otherwise-independent threads and distorts
// every measurement this repository exists to make. Every per-thread word
// in this module therefore lives in its own padded cell.
//
// The pad size is 128 bytes, not 64: modern Intel parts prefetch cache
// lines in adjacent pairs, so 64-byte padding still ping-pongs under the
// spatial prefetcher.
package padded

import "sync/atomic"

// CacheLine is the padding granularity in bytes (two physical lines, to
// defeat the adjacent-line prefetcher).
const CacheLine = 128

// Uint64 is an atomic uint64 alone on its cache-line pair.
type Uint64 struct {
	_ [CacheLine - 8]byte
	v atomic.Uint64
	_ [CacheLine - 8]byte
}

// Load atomically loads the value.
func (p *Uint64) Load() uint64 { return p.v.Load() }

// Store atomically stores v.
func (p *Uint64) Store(v uint64) { p.v.Store(v) }

// Add atomically adds delta and returns the new value.
func (p *Uint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

// Uint32 is an atomic uint32 alone on its cache-line pair.
type Uint32 struct {
	_ [CacheLine - 4]byte
	v atomic.Uint32
	_ [CacheLine - 4]byte
}

// Load atomically loads the value.
func (p *Uint32) Load() uint32 { return p.v.Load() }

// Store atomically stores v.
func (p *Uint32) Store(v uint32) { p.v.Store(v) }

// Int64 is an atomic int64 alone on its cache-line pair.
type Int64 struct {
	_ [CacheLine - 8]byte
	v atomic.Int64
	_ [CacheLine - 8]byte
}

// Load atomically loads the value.
func (p *Int64) Load() int64 { return p.v.Load() }

// Store atomically stores v.
func (p *Int64) Store(v int64) { p.v.Store(v) }

// Add atomically adds delta and returns the new value.
func (p *Int64) Add(delta int64) int64 { return p.v.Add(delta) }
