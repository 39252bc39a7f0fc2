package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"pop/internal/padded"
	"pop/internal/rng"
)

// refZipf is the Zipfian generator as it was before the draw's constant
// 1 + 0.5^theta moved into newZipfState: it recomputes that constant on
// every draw. It is the reference the hoisted generator must match.
type refZipf struct {
	n                        int64
	theta, zetan, alpha, eta float64
}

func newRefZipf(n int64, theta float64) *refZipf {
	z := &refZipf{n: n, theta: theta}
	zeta2 := 0.0
	for i := int64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 || n < 2 {
			zeta2 = z.zetan
		}
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *refZipf) next(r *rng.State) int64 {
	u := float64(r.Uint64()>>11) / (1 << 53)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// refSampler is Sampler's Next and NextInsert over refZipf.
type refSampler struct {
	r        *rng.State
	n        int64
	z        *refZipf
	latest   bool
	frontier int64
}

func newRefSampler(seed uint64, n int64, dist Dist) *refSampler {
	s := &refSampler{r: rng.New(seed), n: n}
	if dist != Uniform {
		s.z = newRefZipf(n, DefaultZipfS)
		s.latest = dist == Latest
		s.frontier = n / 2
	}
	return s
}

func (s *refSampler) next() int64 {
	if s.z == nil {
		return s.r.Intn(s.n)
	}
	rank := s.z.next(s.r)
	if s.latest {
		k := s.frontier - 1 - rank
		for k < 0 {
			k += s.n
		}
		return k
	}
	x := uint64(rank) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int64(x % uint64(s.n))
}

func (s *refSampler) nextInsert() int64 {
	if !s.latest {
		return s.next()
	}
	k := s.frontier
	s.frontier++
	if s.frontier >= s.n {
		s.frontier = 0
	}
	return k
}

// streamDraws is how many draws of each stream TestDrawStreamsUnchanged
// pins.
const streamDraws = 1_000_000

// TestDrawStreamsUnchanged pins the first 10⁶ draws of NewSampler under
// each distribution (every 16th draw a NextInsert, so Latest's frontier
// moves) and of Generator.Next under ReadHeavy. Each stream must equal
// the reference above draw for draw, and the reference must hash to the
// digest checked in here, so neither side can drift unseen.
func TestDrawStreamsUnchanged(t *testing.T) {
	const keys = 1_000_000
	digest := func(draw func() int64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for range streamDraws {
			binary.LittleEndian.PutUint64(b[:], uint64(draw()))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	for _, c := range []struct {
		dist Dist
		want uint64
	}{
		{Uniform, 0xd1013b9f716ec3e7},
		{Zipf, 0xe5023be77612e944},
		{Latest, 0x2f8666fd7daf93ac},
	} {
		t.Run(c.dist.String(), func(t *testing.T) {
			const seed = 0x5eed_0001
			s, err := NewSampler(seed, keys, c.dist, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSampler(seed, keys, c.dist)
			i := 0
			got := digest(func() int64 {
				i++
				var g, w int64
				if i%16 == 0 {
					g, w = s.NextInsert(), ref.nextInsert()
				} else {
					g, w = s.Next(), ref.next()
				}
				if g != w {
					t.Fatalf("draw %d: %d, reference %d", i, g, w)
				}
				return g
			})
			if got != c.want {
				t.Fatalf("digest %#x, want %#x", got, c.want)
			}
		})
	}
	t.Run("generator", func(t *testing.T) {
		const seed = 0x5eed_0002
		g := NewGenerator(seed, ReadHeavy, keys)
		keyStream, opStream := rng.New(seed^0x6b65795f73747265), rng.New(seed)
		i := 0
		got := digest(func() int64 {
			i++
			op, k := g.Next()
			wk := keyStream.Intn(keys)
			var wop Op
			switch p := opStream.Pct(); {
			case p < 90:
				wop = Contains
			case p < 95:
				wop = Insert
			default:
				wop = Delete
			}
			if op != wop || k != wk {
				t.Fatalf("draw %d: (%v, %d), reference (%v, %d)", i, op, k, wop, wk)
			}
			return k<<3 | int64(op)
		})
		if want := uint64(0xccae8ae5151de78a); got != want {
			t.Fatalf("digest %#x, want %#x", got, want)
		}
	})
}

// ownsLines fails t unless size is whole padded.CacheLine units and no
// two of 64 consecutive allocations from alloc share a padded.CacheLine.
func ownsLines(t *testing.T, what string, size uintptr, alloc func(i int) unsafe.Pointer) {
	t.Helper()
	if size%padded.CacheLine != 0 {
		t.Fatalf("Sizeof(%s) = %d, not a multiple of %d", what, size, padded.CacheLine)
	}
	keep := make([]unsafe.Pointer, 64)
	owner := map[uintptr]int{}
	for i := range keep {
		keep[i] = alloc(i)
		a := uintptr(keep[i])
		for l := a / padded.CacheLine; l <= (a+size-1)/padded.CacheLine; l++ {
			if j, ok := owner[l]; ok {
				t.Fatalf("%ss %d and %d share the line at %#x", what, j, i, l*padded.CacheLine)
			}
			owner[l] = i
		}
	}
}

// TestGeneratorOwnsItsLines pins the layout of the per-worker objects
// this package hands out and their owners write per op: a Generator
// (its value tag) and a Sampler (its Latest frontier) are whole
// padded.CacheLine units, and 64 consecutive constructions never place
// two of them inside one padded.CacheLine.
func TestGeneratorOwnsItsLines(t *testing.T) {
	ownsLines(t, "Generator", unsafe.Sizeof(Generator{}), func(i int) unsafe.Pointer {
		return unsafe.Pointer(NewGenerator(uint64(i), ReadHeavy, 1000))
	})
	ownsLines(t, "Sampler", unsafe.Sizeof(Sampler{}), func(i int) unsafe.Pointer {
		s, err := NewSampler(uint64(i), 1000, Latest, 0)
		if err != nil {
			t.Fatal(err)
		}
		return unsafe.Pointer(s)
	})
}
