package skiplist

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/hmlist"
	"pop/internal/rng"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return New(d) }, dstest.Config{})
}

// TestRangeEdges exercises degenerate bounds. (Randomized range
// validation against a reference model runs in TestConformance via
// dstest's RangeSequentialVsRef/RangeOwnedStripes suites.)
func TestRangeEdges(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := New(d)
	th := d.RegisterThread()
	for _, k := range []int64{-5, 0, 3, 7, 100} {
		l.PutIfAbsent(th, k, 0)
	}
	if got := l.RangeCount(th, 10, 5); got != 0 {
		t.Fatalf("inverted range counted %d", got)
	}
	if got := l.RangeCount(th, -1000, 1000); got != 5 {
		t.Fatalf("covering range counted %d, want 5", got)
	}
	if got := l.RangeCount(th, 3, 3); got != 1 {
		t.Fatalf("point range counted %d, want 1", got)
	}
	if got := l.RangeCount(th, 4, 6); got != 0 {
		t.Fatalf("empty gap counted %d, want 0", got)
	}
	if buf := l.RangeCollect(th, 0, 7, nil); len(buf) != 3 || buf[0] != 0 || buf[1] != 3 || buf[2] != 7 {
		t.Fatalf("RangeCollect(0,7) = %v", buf)
	}
}

// TestTowerHeightsReasonable sanity-checks the geometric height draw by
// inserting many keys and verifying multi-level towers exist (coverage
// for the upper-level link path).
func TestTowerHeightsReasonable(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := New(d)
	th := d.RegisterThread()
	for k := int64(0); k < 4096; k++ {
		l.PutIfAbsent(th, k, 0)
	}
	if got := l.Size(th); got != 4096 {
		t.Fatalf("Size = %d, want 4096", got)
	}
	// A 4096-key skiplist with geometric heights has ~2048 towers of
	// height >= 2; the range scan must still see every key.
	if got := l.RangeCount(th, 0, 4095); got != 4096 {
		t.Fatalf("RangeCount over all = %d, want 4096", got)
	}
}

// checkIndex asserts the index shape at quiescence: every level sorted
// non-decreasing by key with no marked cell left linked, every column
// routing to a same-key node, and (level 0 holding every column) a live
// column count inside the geometric(1/4) band around keys/4 — a purge
// that misses its column shows up as growth.
func checkIndex(t *testing.T, l *List, keys int64, phase string) {
	t.Helper()
	for lvl := 0; lvl < maxIndexHeight; lvl++ {
		cols, prev := int64(0), int64(math.MinInt64)
		for raw := l.headCol.cell(lvl).Load(); ; {
			if core.Marked(raw) {
				t.Fatalf("%s: level %d: marked cell still linked before key %d", phase, lvl, prev)
			}
			c := (*column)(raw)
			if c == l.tailCol {
				break
			}
			if c.key < prev {
				t.Fatalf("%s: level %d out of order: key %d follows %d", phase, lvl, c.key, prev)
			}
			if n := c.n.Load(); n == nil {
				t.Fatalf("%s: live column for key %d has a cleared node pointer", phase, c.key)
			} else if got := (*hmlist.Node)(n).Key(); got != c.key {
				t.Fatalf("%s: column key %d routes to node key %d", phase, c.key, got)
			}
			cols, prev, raw = cols+1, c.key, c.cell(lvl).Load()
		}
		// Geometric(1/4) heights: P(column) = 1/4. Allow generous slack.
		if lo, hi := keys/6, keys/3; lvl == 0 && (cols < lo || cols > hi) {
			t.Fatalf("%s: columns = %d of %d keys, outside sane geometric bounds [%d, %d]", phase, cols, keys, lo, hi)
		}
	}
}

// TestColumnAccounting pins the index invariants: roughly a quarter of
// keys own a column (geometric(1/4)), every column routes to a live
// same-key node, overwrite churn (every Put purges one column and
// splices another) keeps every level sorted and the column count in
// band, and a full delete leaves the index empty — every column unlinked
// by the purge hook and every node back in its pool.
func TestColumnAccounting(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, &core.Options{ReclaimThreshold: 64})
	l := New(d)
	th := d.RegisterThread()
	const keys = 20_000
	for k := int64(0); k < keys; k++ {
		l.PutIfAbsent(th, k, 0)
	}
	checkIndex(t, l, keys, "prefill")
	for round := uint64(1); round <= 2; round++ {
		for k := int64(0); k < keys; k++ {
			if _, replaced := l.Put(th, k, round); !replaced {
				t.Fatalf("overwrite round %d: key %d absent", round, k)
			}
		}
	}
	checkIndex(t, l, keys, "overwrite")
	// Deleting everything must purge every column and return every node
	// to its pool once reclamation has run.
	for k := int64(0); k < keys; k++ {
		if _, ok := l.Delete(th, k); !ok {
			t.Fatalf("delete %d: absent", k)
		}
	}
	th.Flush()
	for lvl := 0; lvl < maxIndexHeight; lvl++ {
		if raw := l.headCol.cell(lvl).Load(); (*column)(core.Mask(raw)) != l.tailCol {
			t.Fatalf("index level %d not empty after full delete", lvl)
		}
	}
	if got := l.Outstanding(); got != 0 {
		t.Fatalf("node pool outstanding = %d after full delete+flush, want 0", got)
	}
}

// TestPurgeStepCount is the complexity guard for the index purge: the
// columns one purge loads (purgeHops: its walks plus its scan and unlink
// loops) must grow with log n, not with n. Counted, not timed, so a
// purge that scans a level fails here instead of waiting for a
// benchmark.
func TestPurgeStepCount(t *testing.T) {
	const purges = 2000
	meanHops := func(n int64) float64 {
		d := core.NewDomain(core.EBR, 1, nil)
		l := New(d)
		th := d.RegisterThread()
		for k := int64(0); k < n; k++ {
			l.PutIfAbsent(th, k, 0)
		}
		// Single-threaded, so every overwrite retires its victim on the
		// spot: exactly one purge per Put, about a quarter owning a column.
		tl, r := l.localFor(th), rng.New(42)
		before := tl.purgeHops
		for i := 0; i < purges; i++ {
			l.Put(th, r.Intn(n), 1)
		}
		mean := float64(tl.purgeHops-before) / purges
		t.Logf("n=%d mean=%.2f", n, mean)
		// Measured ~2.0–2.3·log2 n (1/4-density levels cost ~4 hops each, and
		// a column owner re-walks once per level it unlinks).
		if bound := 4 * math.Log2(float64(n)); mean > bound {
			t.Errorf("n=%d: %.1f columns loaded per purge, want <= 4*log2(n) = %.0f", n, mean, bound)
		}
		return mean
	}
	small := meanHops(1 << 10)
	large := meanHops(1 << 15)
	if !testing.Short() {
		large = meanHops(1 << 20)
	}
	if large > 3*small {
		t.Errorf("purge cost grew %.1fx from n=1K (%.1f) to the largest n (%.1f), want <= 3x", large/small, small, large)
	}
}

var columnSink *column

// TestColumnLayout pins the single-object column layout: one allocation
// per column, of the size class the shapes' comment names, with the h
// cells contiguous behind the header inside that allocation and nothing
// reachable past them.
func TestColumnLayout(t *testing.T) {
	const hdr, word = unsafe.Sizeof(column{}), unsafe.Sizeof(core.Atomic{})
	for _, w := range []struct {
		name               string
		size, want, offset uintptr
	}{
		{"column", hdr, 24, hdr},
		{"col1", unsafe.Sizeof(col1{}), 32, unsafe.Offsetof(col1{}.cells)},
		{"col5", unsafe.Sizeof(col5{}), 64, unsafe.Offsetof(col5{}.cells)},
		{"col13", unsafe.Sizeof(col13{}), 128, unsafe.Offsetof(col13{}.cells)},
		{"col16", unsafe.Sizeof(col16{}), 152, unsafe.Offsetof(col16{}.cells)},
	} {
		if w.size != w.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", w.name, w.size, w.want)
		}
		if w.offset != hdr {
			t.Errorf("%s: cells at offset %d, want %d (cell's arithmetic assumes it)", w.name, w.offset, hdr)
		}
	}
	mustPanic := func(h, i int, c *column) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("height %d: cell(%d) did not panic", h, i)
			}
		}()
		c.cell(i)
	}
	for h := 0; h <= maxIndexHeight; h++ {
		// The Go size class each height's shape lands in.
		class := uintptr(160)
		switch {
		case h == 0:
			class = 24
		case h == 1:
			class = 32
		case h <= 5:
			class = 64
		case h <= 13:
			class = 128
		}
		if allocs := testing.AllocsPerRun(100, func() { columnSink = newColumn(7, h) }); allocs != 1 {
			t.Errorf("height %d: %v allocations per column, want 1", h, allocs)
		}
		// Bytes per column as the allocator counts them: a shape too small
		// for its height would let cell() reach into a neighbouring object.
		// Anything else the process allocates meanwhile only adds, so take
		// the least of a few samples.
		const runs = 1000
		got := ^uintptr(0)
		for try := 0; try < 5 && got != class; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				columnSink = newColumn(7, h)
			}
			runtime.ReadMemStats(&after)
			got = min(got, uintptr(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if got != class {
			t.Errorf("height %d: %d B allocated per column, want the %d B class", h, got, class)
		}
		c := newColumn(7, h)
		if c.key != 7 || c.h != h || c.n.Load() != nil {
			t.Errorf("height %d: header = {%d, %v, %d}", h, c.key, c.n.Load(), c.h)
		}
		base := uintptr(unsafe.Pointer(c))
		for i := 0; i < h; i++ {
			if got, want := uintptr(unsafe.Pointer(c.cell(i))), base+hdr+uintptr(i)*word; got != want || got+word > base+class {
				t.Errorf("height %d: cell(%d) at base+%d, want base+%d inside %d B", h, i, got-base, want-base, class)
			}
			if c.cell(i).Load() != nil {
				t.Errorf("height %d: cell(%d) not zeroed", h, i)
			}
		}
		mustPanic(h, h, c)
		mustPanic(h, -1, c)
	}
	l := New(core.NewDomain(core.EBR, 1, nil))
	if l.headCol.h != maxIndexHeight || l.tailCol.h != 0 {
		t.Errorf("head column has %d cells, tail %d; want %d and 0", l.headCol.h, l.tailCol.h, maxIndexHeight)
	}
}

// TestColumnsSurviveGC proves the collector agrees with the layout:
// linked columns are reachable only through unsafe.Pointer cells — some
// of them tagged (base+1) while a purge is in flight — and those cells
// are reached by pointer arithmetic, so a shape the GC mis-scans would
// free a linked column. Every round runs under a near-continuous
// collector and ends in a full collection.
func TestColumnsSurviveGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	d := core.NewDomain(core.EBR, 1, &core.Options{ReclaimThreshold: 64})
	l := New(d)
	th := d.RegisterThread()
	const keys = 20_000
	check := func(phase string, want uint64) {
		t.Helper()
		runtime.GC()
		checkIndex(t, l, keys, phase)
		for k := int64(0); k < keys; k++ {
			if v, ok := l.Get(th, k); !ok || v != want {
				t.Fatalf("%s: Get(%d) = %d, %t; want %d", phase, k, v, ok, want)
			}
		}
	}
	for k := int64(0); k < keys; k++ {
		l.PutIfAbsent(th, k, 0)
	}
	check("prefill", 0)
	for round := uint64(1); round <= 2; round++ {
		for k := int64(0); k < keys; k++ {
			l.Put(th, k, round)
		}
		check("overwrite", round)
	}
	for k := int64(0); k < keys; k++ {
		if _, ok := l.Delete(th, k); !ok {
			t.Fatalf("delete %d: absent", k)
		}
		if k%2 == 1 { // re-insert in pairs, so splices land next to fresh purges
			l.PutIfAbsent(th, k-1, 9)
			l.PutIfAbsent(th, k, 9)
		}
	}
	check("delete/re-insert", 9)
}
