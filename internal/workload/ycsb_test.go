package workload

import (
	"math"
	"testing"

	"pop/internal/rng"
)

// TestYCSBMixFrequencies is the statistical drift guard: each YCSB
// mix's drawn op-class frequencies must land within tolerance of the
// spec percentages, so a silent change to the NextStore cascade (or to
// a workload definition) fails loudly.
func TestYCSBMixFrequencies(t *testing.T) {
	const draws = 100_000
	const tolerance = 1.5 // percentage points
	for _, w := range YCSBWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if !w.Mix.Valid() {
				t.Fatalf("workload %s mix %+v invalid", w.Name, w.Mix)
			}
			r := rng.New(0xcafe + uint64(w.Name[0]))
			var counts [6]int
			for i := 0; i < draws; i++ {
				counts[w.Mix.NextStore(r)]++
			}
			check := func(class StoreOp, name string, wantPct int) {
				got := 100 * float64(counts[class]) / draws
				if math.Abs(got-float64(wantPct)) > tolerance {
					t.Errorf("%s: %s frequency %.2f%%, want %d%% ± %v",
						w.Name, name, got, wantPct, tolerance)
				}
			}
			check(StoreGet, "get", w.Mix.GetPct)
			check(StorePut, "put", w.Mix.PutPct)
			check(StoreMGet, "mget", w.Mix.MGetPct)
			check(StoreScan, "scan", w.Mix.ScanPct)
			check(StoreDelete, "delete", w.Mix.DeletePct)
			check(StoreRMW, "rmw", w.Mix.RMWPct)
		})
	}
}

func TestParseYCSB(t *testing.T) {
	for _, name := range []string{"A", "b", " C ", "d", "E", "f"} {
		w, err := ParseYCSB(name)
		if err != nil {
			t.Errorf("ParseYCSB(%q): %v", name, err)
			continue
		}
		if !w.Mix.Valid() {
			t.Errorf("workload %s: invalid mix %+v", w.Name, w.Mix)
		}
	}
	if _, err := ParseYCSB("G"); err == nil {
		t.Error("ParseYCSB(G) succeeded, want error")
	}
	if _, err := ParseYCSB(""); err == nil {
		t.Error("ParseYCSB(empty) succeeded, want error")
	}
	if d, _ := ParseYCSB("D"); d.Dist != Latest {
		t.Errorf("workload D distribution = %v, want latest", d.Dist)
	}
	// E alone scans, so it alone gets an ordered store.
	if e, _ := ParseYCSB("E"); e.Mix.ScanPct == 0 {
		t.Error("workload E has no scan share")
	}
	if a, _ := ParseYCSB("A"); a.Mix.ScanPct != 0 {
		t.Error("workload A has a scan share")
	}
}

func TestParseDistLatest(t *testing.T) {
	d, err := ParseDist("latest")
	if err != nil || d != Latest {
		t.Fatalf("ParseDist(latest) = %v, %v", d, err)
	}
	if d.String() != "latest" {
		t.Errorf("Latest.String() = %q", d.String())
	}
	if _, err := ParseDist("pareto"); err == nil {
		t.Error("ParseDist(pareto) succeeded")
	}
}

// TestLatestSampler pins the read-latest shape: reads cluster just
// behind the insert frontier, and NextInsert walks the frontier
// forward so reads chase the writers.
func TestLatestSampler(t *testing.T) {
	const n = 10_000
	s, err := NewSampler(7, n, Latest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Frontier(); got != n/2 {
		t.Fatalf("initial frontier = %d, want %d", got, n/2)
	}
	// Reads: most draws must land within 100 ranks behind the frontier
	// (zipf 0.99 concentrates far harder than that).
	recent := 0
	const draws = 20_000
	for i := 0; i < draws; i++ {
		k := s.Next()
		if k < 0 || k >= n {
			t.Fatalf("draw %d out of range [0,%d)", k, n)
		}
		if d := s.Frontier() - 1 - k; d >= 0 && d < 100 {
			recent++
		}
	}
	if frac := float64(recent) / draws; frac < 0.5 {
		t.Errorf("only %.2f of reads within 100 ranks of the frontier, want latest-skewed (>0.5)", frac)
	}
	// Inserts: sequential frontier ranks, then reads chase them.
	start := s.Frontier()
	for i := int64(0); i < 50; i++ {
		if k := s.NextInsert(); k != start+i {
			t.Fatalf("NextInsert #%d = %d, want %d", i, k, start+i)
		}
	}
	if got := s.Frontier(); got != start+50 {
		t.Fatalf("frontier after 50 inserts = %d, want %d", got, start+50)
	}
	// Wrap-around: frontier recycles at n.
	w, err := NewSampler(9, 4, Latest, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 8; i++ {
		k := w.NextInsert()
		if k < 0 || k >= 4 {
			t.Fatalf("wrapped insert rank %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Errorf("insert frontier covered %d of 4 ranks over a full wrap", len(seen))
	}
}

// TestNextInsertTransparentForOldDists pins that NextInsert is exactly
// Next for uniform and zipf samplers, so workers can call it
// unconditionally for puts without changing any pre-existing key
// stream.
func TestNextInsertTransparentForOldDists(t *testing.T) {
	for _, dist := range []Dist{Uniform, Zipf} {
		a, err := NewSampler(42, 4096, dist, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSampler(42, 4096, dist, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if x, y := a.Next(), b.NextInsert(); x != y {
				t.Fatalf("dist %v draw %d: Next=%d NextInsert=%d", dist, i, x, y)
			}
		}
	}
}
