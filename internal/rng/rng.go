// Package rng implements the xoshiro256** pseudo-random generator used by
// the workload driver.
//
// The benchmark harness needs a per-thread generator that is (a) fast
// enough that random-key generation never dominates a data-structure
// operation, (b) seedable so trials are reproducible, and (c) free of any
// shared state so that adding worker threads adds zero synchronisation.
// math/rand's global functions fail (c) and math/rand.Source behind an
// interface call is slower than the list operations we measure, so we
// implement xoshiro256** (Blackman & Vigna) directly: four words of
// state, three rotations per number.
//
// Promise (c) also covers the memory the state lives in. Every draw
// writes all four state words, so two workers' generators that share a
// cache line would ping-pong it between cores on every draw: that is
// shared state in all but name. A State is therefore whole
// padded.CacheLine units, and a State from New sits alone on its lines
// (the allocator aligns a power-of-two size class to its size).
package rng

import "pop/internal/padded"

// State is a xoshiro256** generator. The zero value is invalid; use New.
// Its 32 bytes of state are padded to a whole padded.CacheLine.
type State struct {
	s [4]uint64
	_ [padded.CacheLine - 32]byte
}

// splitmix64 is the recommended seeding generator for xoshiro: it
// decorrelates arbitrary user seeds (including small integers 0,1,2,...)
// into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *State {
	var st State
	st.Seed(seed)
	return &st
}

// Seed reinitialises the generator from seed.
func (r *State) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro's state must not be all zero; splitmix64 of any seed cannot
	// produce four zero words, but guard anyway for safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *State) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *State) Intn(n int64) int64 {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and divides only
	// on the (rare) rejection path.
	un := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, un)
		if lo >= un || lo >= (-un)%un {
			return int64(hi)
		}
	}
}

// Pct returns a uniform value in [0, 100), for op-mix selection.
func (r *State) Pct() int { return int(r.Intn(100)) }

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask, t>>32
	t = aLo*bHi + tLo
	lo |= t << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}
