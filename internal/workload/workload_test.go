package workload_test

import (
	"testing"
	"testing/quick"

	"pop/internal/workload"
)

func TestStandardMixesValid(t *testing.T) {
	if !workload.ReadHeavy.Valid() {
		t.Fatal("ReadHeavy invalid")
	}
	if !workload.UpdateHeavy.Valid() {
		t.Fatal("UpdateHeavy invalid")
	}
	if !workload.ScanHeavy.Valid() {
		t.Fatal("ScanHeavy invalid")
	}
}

func TestMixValidation(t *testing.T) {
	cases := []struct {
		mix workload.Mix
		ok  bool
	}{
		{workload.Mix{ContainsPct: 100}, true},
		{workload.Mix{ContainsPct: 34, InsertPct: 33, DeletePct: 33}, true},
		{workload.Mix{ContainsPct: 50, InsertPct: 50, DeletePct: 50}, false},
		{workload.Mix{ContainsPct: -10, InsertPct: 60, DeletePct: 50}, false},
		{workload.Mix{}, false},
		{workload.Mix{RangePct: 100}, true},
		{workload.Mix{ContainsPct: 40, InsertPct: 5, DeletePct: 5, RangePct: 50}, true},
		{workload.Mix{ContainsPct: 90, InsertPct: 5, DeletePct: 5, RangePct: 10}, false},
		{workload.Mix{ContainsPct: 50, InsertPct: 30, DeletePct: 30, RangePct: -10}, false},
	}
	for _, c := range cases {
		if got := c.mix.Valid(); got != c.ok {
			t.Fatalf("Valid(%+v) = %v, want %v", c.mix, got, c.ok)
		}
	}
}

func TestGeneratorHonoursMix(t *testing.T) {
	const draws = 100_000
	g := workload.NewGenerator(1, workload.ReadHeavy, 1000)
	var counts [3]int
	for i := 0; i < draws; i++ {
		op, key := g.Next()
		if key < 0 || key >= 1000 {
			t.Fatalf("key %d out of range", key)
		}
		counts[op]++
	}
	// 90/5/5 within 1.5 points each.
	if c := float64(counts[workload.Contains]) / draws * 100; c < 88.5 || c > 91.5 {
		t.Fatalf("contains fraction %.2f%%, want ~90%%", c)
	}
	if c := float64(counts[workload.Insert]) / draws * 100; c < 3.5 || c > 6.5 {
		t.Fatalf("insert fraction %.2f%%, want ~5%%", c)
	}
}

func TestUpdateHeavyHasNoReads(t *testing.T) {
	g := workload.NewGenerator(2, workload.UpdateHeavy, 100)
	for i := 0; i < 10_000; i++ {
		if op, _ := g.Next(); op == workload.Contains {
			t.Fatal("update-heavy mix produced a contains")
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := workload.NewGenerator(7, workload.ReadHeavy, 500)
	b := workload.NewGenerator(7, workload.ReadHeavy, 500)
	for i := 0; i < 1000; i++ {
		opA, kA := a.Next()
		opB, kB := b.Next()
		if opA != opB || kA != kB {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestScanHeavyHonoursRangePct(t *testing.T) {
	const draws = 100_000
	g := workload.NewGenerator(3, workload.ScanHeavy, 1000)
	var counts [4]int
	for i := 0; i < draws; i++ {
		op, _ := g.Next()
		counts[op]++
	}
	if c := float64(counts[workload.RangeQuery]) / draws * 100; c < 48.5 || c > 51.5 {
		t.Fatalf("range fraction %.2f%%, want ~50%%", c)
	}
	if c := float64(counts[workload.Contains]) / draws * 100; c < 38.5 || c > 41.5 {
		t.Fatalf("contains fraction %.2f%%, want ~40%%", c)
	}
}

func TestRangeSpanDefaultsAndOverride(t *testing.T) {
	g := workload.NewGenerator(4, workload.ScanHeavy, 1000)
	if got := g.RangeSpan(); got != workload.DefaultRangeSpan {
		t.Fatalf("default RangeSpan = %d, want %d", got, workload.DefaultRangeSpan)
	}
	g.SetRangeSpan(17)
	if got := g.RangeSpan(); got != 17 {
		t.Fatalf("RangeSpan after SetRangeSpan(17) = %d", got)
	}
}

func TestNewGeneratorErr(t *testing.T) {
	if _, err := workload.NewGeneratorErr(1, workload.Mix{ContainsPct: 1}, 10); err == nil {
		t.Fatal("bad mix accepted")
	}
	if _, err := workload.NewGeneratorErr(1, workload.ReadHeavy, 0); err == nil {
		t.Fatal("bad key range accepted")
	}
	g, err := workload.NewGeneratorErr(1, workload.ScanHeavy, 10)
	if err != nil || g == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestInvalidConstructionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad mix":   func() { workload.NewGenerator(1, workload.Mix{ContainsPct: 1}, 10) },
		"bad range": func() { workload.NewGenerator(1, workload.ReadHeavy, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestQuickKeysInRange property-checks key bounds for arbitrary seeds and
// ranges.
func TestQuickKeysInRange(t *testing.T) {
	prop := func(seed uint64, r uint16) bool {
		keyRange := int64(r%5000) + 2
		g := workload.NewGenerator(seed, workload.UpdateHeavy, keyRange)
		for i := 0; i < 64; i++ {
			if _, k := g.Next(); k < 0 || k >= keyRange {
				return false
			}
			if k := g.Key(); k < 0 || k >= keyRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKVStoreMixValid(t *testing.T) {
	if !workload.KVStore.Valid() {
		t.Fatal("KVStore invalid")
	}
	if workload.KVStore.OverwritePct == 0 {
		t.Fatal("KVStore has no overwrite share")
	}
}

func TestOverwriteMixHonoured(t *testing.T) {
	const draws = 100_000
	g := workload.NewGenerator(9, workload.KVStore, 1000)
	counts := make(map[workload.Op]int)
	for i := 0; i < draws; i++ {
		op, _ := g.Next()
		counts[op]++
	}
	if counts[workload.RangeQuery] != 0 {
		t.Fatal("kv mix produced a range query")
	}
	check := func(op workload.Op, want float64) {
		t.Helper()
		got := float64(counts[op]) / draws * 100
		if got < want-1.5 || got > want+1.5 {
			t.Fatalf("op %d fraction %.2f%%, want ~%.0f%%", op, got, want)
		}
	}
	check(workload.Get, 70)
	check(workload.Put, 10)
	check(workload.Overwrite, 15)
	check(workload.Delete, 5)
}

// TestOldMixStreamsUnchanged pins that adding OverwritePct did not
// perturb the draw sequence of overwrite-free mixes (trial
// reproducibility across this refactor).
func TestOldMixStreamsUnchanged(t *testing.T) {
	g := workload.NewGenerator(5, workload.ScanHeavy, 100)
	for i := 0; i < 10_000; i++ {
		if op, _ := g.Next(); op == workload.Overwrite {
			t.Fatal("overwrite drawn from a mix without OverwritePct")
		}
	}
}

func TestEncodeValueRoundTrip(t *testing.T) {
	for _, key := range []int64{0, 1, -1, 42, 1 << 40} {
		for tag := uint32(0); tag < 64; tag++ {
			v := workload.EncodeValue(key, tag)
			if !workload.ValueValid(key, v) {
				t.Fatalf("EncodeValue(%d, %d) = %#x fails its own checksum", key, tag, v)
			}
			if workload.ValueValid(key+1, v) {
				t.Fatalf("value %#x for key %d also validates for key %d", v, key, key+1)
			}
		}
	}
	// A perturbed value must fail.
	v := workload.EncodeValue(7, 3)
	for bit := 0; bit < 64; bit += 7 {
		if workload.ValueValid(7, v^(1<<bit)) {
			t.Fatalf("bit-%d-flipped value still validates", bit)
		}
	}
}

func TestGeneratorValueVerifiable(t *testing.T) {
	g := workload.NewGenerator(11, workload.KVStore, 100)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		k := g.Key()
		v := g.Value(k)
		if !workload.ValueValid(k, v) {
			t.Fatalf("generated value %#x for key %d fails verification", v, k)
		}
		if seen[v] {
			t.Fatalf("generator repeated value %#x", v)
		}
		seen[v] = true
	}
}
