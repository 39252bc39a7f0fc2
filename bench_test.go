// Benchmarks regenerating every figure in the paper's evaluation
// (Figures 1-11 plus the read-cost analysis, robustness scenario and
// ablations — `popbench -list` prints the experiment index), together with
// microbenchmarks of the read and update paths per reclamation scheme.
//
// The figure benches run the same sweep definitions cmd/popbench uses,
// at a reduced default scale so `go test -bench=.` finishes on a laptop;
// they report the paper's headline comparisons as custom metrics:
//
//	pop:ops/s   HazardPtrPOP throughput at the largest swept thread count
//	pop/hp:x    HazardPtrPOP speedup over classic HP (paper: 1.2x-4x)
//	epop/ebr:x  EpochPOP relative to EBR (paper: ~1x)
//
// Use cmd/popbench for full-size runs and complete series output.
package pop_test

import (
	"testing"
	"time"

	"pop"
	"pop/internal/figures"
	"pop/internal/report"
)

// benchCtx is the reduced-scale sweep context used by the figure benches.
func benchCtx() figures.Ctx {
	return figures.Ctx{
		Duration: 40 * time.Millisecond,
		Threads:  []int{2},
		Scale:    512,
		Seed:     7,
	}
}

// colValue extracts the last-row value of the named column from the
// first series, or -1 if absent.
func colValue(series []report.Series, col string) float64 {
	if len(series) == 0 || len(series[0].Rows) == 0 {
		return -1
	}
	s := series[0]
	last := s.Rows[len(s.Rows)-1]
	for i, n := range s.Names {
		if n == col {
			return last.Cells[i]
		}
	}
	return -1
}

// benchFigure runs one figure per iteration and reports the headline
// ratios as custom metrics.
func benchFigure(b *testing.B, id string) {
	f, ok := figures.Get(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	ctx := benchCtx()
	var series []report.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = f.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	if v := colValue(series, "HazardPtrPOP"); v > 0 {
		b.ReportMetric(v, "pop:ops/s")
		if hp := colValue(series, "HP"); hp > 0 {
			b.ReportMetric(v/hp, "pop/hp:x")
		}
	}
	if e := colValue(series, "EpochPOP"); e > 0 {
		if ebr := colValue(series, "EBR"); ebr > 0 {
			b.ReportMetric(e/ebr, "epop/ebr:x")
		}
	}
}

// --- Figures 1-2: update-heavy throughput + retire-list memory ---

func BenchmarkFig1aDGTUpdateHeavy(b *testing.B)  { benchFigure(b, "fig1a") }
func BenchmarkFig1bHMHTUpdateHeavy(b *testing.B) { benchFigure(b, "fig1b") }
func BenchmarkFig1cABTUpdateHeavy(b *testing.B)  { benchFigure(b, "fig1c") }
func BenchmarkFig2aHMLUpdateHeavy(b *testing.B)  { benchFigure(b, "fig2a") }
func BenchmarkFig2bLLUpdateHeavy(b *testing.B)   { benchFigure(b, "fig2b") }

// --- Figure 3: read-heavy throughput ---

func BenchmarkFig3aABTReadHeavy(b *testing.B) { benchFigure(b, "fig3a") }
func BenchmarkFig3bDGTReadHeavy(b *testing.B) { benchFigure(b, "fig3b") }

// --- Figure 4: long-running reads (both panels in one sweep) ---

func BenchmarkFig4LongReads(b *testing.B) { benchFigure(b, "fig4") }

// --- Appendix D: Figures 5-9 ---

func BenchmarkFig5ABTAppendix(b *testing.B) { benchFigure(b, "fig5") }
func BenchmarkFig6DGTAppendix(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7HTAppendix(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8HMLAppendix(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig9LLAppendix(b *testing.B)  { benchFigure(b, "fig9") }

// --- Appendix E: Figures 10-11 (with Crystalline-lite) ---

func BenchmarkFig10HMLCrystalline(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11HTCrystalline(b *testing.B)  { benchFigure(b, "fig11") }

// --- Skiplist extension figures: update churn and scan-heavy ranges ---

func BenchmarkSklUpdateHeavy(b *testing.B) { benchFigure(b, "skl-update") }
func BenchmarkSklScanHeavy(b *testing.B)   { benchFigure(b, "skl-scan") }
func BenchmarkStoreServe(b *testing.B)     { benchFigure(b, "store-serve") }
func BenchmarkNBROverwrite(b *testing.B)   { benchFigure(b, "nbr-overwrite") }

// --- §2.1.2 read-cost analysis and §5.1 robustness ---

func BenchmarkReadPathCostFigure(b *testing.B) { benchFigure(b, "readcost") }
func BenchmarkRobustnessStall(b *testing.B)    { benchFigure(b, "stall") }

// --- Ablations ---

func BenchmarkAblationThreshold(b *testing.B) { benchFigure(b, "ablate-threshold") }
func BenchmarkAblationEpochFreq(b *testing.B) { benchFigure(b, "ablate-epochfreq") }
func BenchmarkAblationCMult(b *testing.B)     { benchFigure(b, "ablate-c") }

// --- Microbenchmarks: per-scheme read and update path cost ---

// BenchmarkContains measures one membership test on a 512-key
// Harris-Michael list: the pure read-path cost per policy (ns/op here is
// the per-operation analogue of the paper's §2.1.2 perf analysis).
func BenchmarkContains(b *testing.B) {
	for _, p := range pop.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := pop.NewDomain(p, 1, nil)
			set := pop.NewHarrisMichaelList(d)
			t := d.RegisterThread()
			for k := int64(511); k >= 0; k-- {
				set.Insert(t, 2*k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.Contains(t, int64(i%1024))
			}
		})
	}
}

// BenchmarkInsertDelete measures an insert+delete pair on the hash table
// (short traversals: reclamation bookkeeping dominates).
func BenchmarkInsertDelete(b *testing.B) {
	for _, p := range pop.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := pop.NewDomain(p, 1, &pop.Options{ReclaimThreshold: 2048})
			set := pop.NewHashTable(d, 4096, 6)
			t := d.RegisterThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i % 4096)
				set.Insert(t, k)
				set.Delete(t, k)
			}
		})
	}
}

// BenchmarkSkipListRangeScan measures one span-100 ordered scan over a
// 16K-key skiplist per policy: the per-hop reservation cost of each
// scheme multiplied across a long traversal (the regime where POP's
// cheap publication matters most).
func BenchmarkSkipListRangeScan(b *testing.B) {
	for _, p := range pop.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := pop.NewDomain(p, 1, nil)
			set := pop.NewSkipList(d)
			t := d.RegisterThread()
			for k := int64(0); k < 16384; k += 2 {
				set.Insert(t, k)
			}
			buf := make([]int64, 0, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := int64((i * 2654435761) % 16384)
				buf = set.RangeCollect(t, lo, lo+99, buf)
			}
		})
	}
}

// BenchmarkABTreeRangeScan measures the same span-100 ordered scan on
// the (a,b)-tree: the opposite reservation shape (a handful of
// whole-leaf protections per scan instead of one reservation per node
// hopped), so the pair of benchmarks separates reservation count from
// reservation lifetime per policy.
func BenchmarkABTreeRangeScan(b *testing.B) {
	for _, p := range pop.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := pop.NewDomain(p, 1, nil)
			set := pop.NewABTree(d)
			t := d.RegisterThread()
			for k := int64(0); k < 16384; k += 2 {
				set.Insert(t, k)
			}
			buf := make([]int64, 0, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := int64((i * 2654435761) % 16384)
				buf = set.RangeCollect(t, lo, lo+99, buf)
			}
		})
	}
}

// BenchmarkABTreeMixed measures the (a,b)-tree under a 90/5/5 mix (the
// paper's read-heavy regime) per policy.
func BenchmarkABTreeMixed(b *testing.B) {
	for _, p := range pop.Policies() {
		b.Run(p.String(), func(b *testing.B) {
			d := pop.NewDomain(p, 1, &pop.Options{ReclaimThreshold: 2048})
			set := pop.NewABTree(d)
			t := d.RegisterThread()
			for k := int64(0); k < 8192; k += 2 {
				set.Insert(t, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64((i * 2654435761) % 8192)
				switch i % 20 {
				case 0:
					set.Insert(t, k)
				case 1:
					set.Delete(t, k)
				default:
					set.Contains(t, k)
				}
			}
		})
	}
}
