// Package figures encodes every experiment in the paper's evaluation —
// Figures 1-11 plus the §2.1.2 read-cost analysis, the robustness
// scenario, and ablations over the design parameters core.Options exposes
// — and this repository's extension experiments: the skiplist sweeps,
// the scan-heavy range-query workloads on both ordered structures
// (skl-scan, abt-scan), whose series include per-scan latency quantiles
// (p50/p99 from the harness's HDR histogram) alongside throughput and
// memory, and the KV-serving sweeps (skl-kv, hmht-kv) that run the
// get/put/overwrite/delete map workload with per-op-class tail
// latencies.
// Each figure knows its workload, data structure, sizes and thresholds,
// runs the sweep through the harness, and returns the same series the
// paper plots. cmd/popbench renders them; bench_test.go reuses the same
// definitions so `go test -bench` regenerates every figure.
//
// Sizes are the paper's divided by Ctx.Scale so laptop-scale runs finish;
// pass Scale=1 for full-size structures. The retire-list threshold
// (paper: 24K) scales with the structure so that reclamation actually
// triggers at reduced size.
package figures

import (
	"fmt"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/harness"
	"pop/internal/report"
	"pop/internal/store"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

// Ctx carries sweep-wide parameters.
type Ctx struct {
	Duration time.Duration // per-trial execution time
	Threads  []int         // thread counts to sweep
	Scale    int64         // divide paper structure sizes by this (>=1)
	Seed     uint64
	Policies []core.Policy        // nil = paper's standard set
	Log      func(string, ...any) // optional progress sink
}

func (c Ctx) withDefaults() Ctx {
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.Scale <= 0 {
		c.Scale = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// standardPolicies is the paper's plot legend order (Figures 1-9).
var standardPolicies = []core.Policy{
	core.IBR, core.HE, core.HP, core.HPAsym, core.HazardPtrPOP,
	core.EBR, core.HazardEraPOP, core.NBR, core.NR, core.EpochPOP,
}

func (c Ctx) policySet(withCrystalline bool) []core.Policy {
	if c.Policies != nil {
		return c.Policies
	}
	if !withCrystalline {
		return standardPolicies
	}
	out := append([]core.Policy(nil), standardPolicies...)
	return append(out, core.Crystalline)
}

// Figure is one reproducible experiment.
type Figure struct {
	ID   string
	Desc string
	Run  func(Ctx) ([]report.Series, error)
}

// Metric extracts one plotted value from a trial result. The standard
// metrics below cover the paper's plots; cmd/popbench composes ad-hoc
// ones for direct sweeps.
type Metric struct {
	Name string
	Get  func(harness.Result) float64
}

var (
	mThroughput  = Metric{"throughput (ops/s)", func(r harness.Result) float64 { return r.Throughput }}
	mReadTput    = Metric{"read throughput (ops/s)", func(r harness.Result) float64 { return r.ReadTput }}
	mRangeTput   = Metric{"range throughput (scans/s)", func(r harness.Result) float64 { return r.RangeTput }}
	mMaxRetire   = Metric{"max retireList size (nodes)", func(r harness.Result) float64 { return float64(r.MaxRetire) }}
	mPeakRes     = Metric{"peak resident nodes", func(r harness.Result) float64 { return float64(r.PeakResident) }}
	mUnreclaimed = Metric{"total unreclaimed nodes", func(r harness.Result) float64 { return float64(r.Unreclaimed) }}
	mScanP50     = ScanLatencyMetric("scan p50 (µs)", 0.50)
	mScanP99     = ScanLatencyMetric("scan p99 (µs)", 0.99)
)

// ScanLatencyMetric builds a metric reading quantile q (in microseconds)
// from a trial's scan-latency histogram; 0 when the mix had no scans.
func ScanLatencyMetric(name string, q float64) Metric {
	return Metric{Name: name, Get: func(r harness.Result) float64 {
		if r.ScanLat == nil {
			return 0
		}
		return r.ScanLat.Quantile(q) / 1e3
	}}
}

// OpLatencyMetric builds a metric reading quantile q (in microseconds)
// of one operation class's latency histogram; 0 when the class was not
// profiled (requires harness.Config.OpLatency).
func OpLatencyMetric(name string, class harness.OpClass, q float64) Metric {
	return Metric{Name: name, Get: func(r harness.Result) float64 {
		h := r.OpLat[class]
		if h == nil {
			return 0
		}
		return h.Quantile(q) / 1e3
	}}
}

// ScanLatencyMaxMetric builds a metric reading the worst observed scan
// latency in microseconds.
func ScanLatencyMaxMetric(name string) Metric {
	return Metric{Name: name, Get: func(r harness.Result) float64 {
		if r.ScanLat == nil {
			return 0
		}
		return float64(r.ScanLat.Max()) / 1e3
	}}
}

// scaleSize divides a paper size by the context scale with a floor.
func scaleSize(c Ctx, paperSize int64) int64 {
	s := paperSize / c.Scale
	if s < 128 {
		s = 128
	}
	return s
}

// scaleThreshold shrinks the paper's 24K retire threshold proportionally
// to the structure so reclamation still triggers at reduced scale.
func scaleThreshold(c Ctx, paperThreshold int) int {
	t := int(int64(paperThreshold) / c.Scale)
	if t < 64 {
		t = 64
	}
	return t
}

// SweepThreads runs cfgBase for every (policy, thread-count) pair and
// builds one series per metric. Callers fill Ctx completely (Run
// functions do it via withDefaults; cmd/popbench from its flags).
func SweepThreads(c Ctx, title string, cfgBase harness.Config, policies []core.Policy, metrics []Metric) ([]report.Series, error) {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.String()
	}
	out := make([]report.Series, len(metrics))
	for i, m := range metrics {
		out[i] = report.Series{
			Title:  fmt.Sprintf("%s — %s", title, m.Name),
			XLabel: "threads",
			Names:  names,
		}
	}
	for _, n := range c.Threads {
		cells := make([][]float64, len(metrics))
		for i := range cells {
			cells[i] = make([]float64, len(policies))
		}
		for pi, p := range policies {
			cfg := cfgBase
			cfg.Policy = p
			cfg.Threads = n
			cfg.Duration = c.Duration
			cfg.Seed = c.Seed
			c.Log("  %s: threads=%d policy=%v", title, n, p)
			res, err := harness.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s [threads=%d policy=%v]: %w", title, n, p, err)
			}
			for mi, m := range metrics {
				cells[mi][pi] = m.Get(res)
			}
		}
		for mi := range metrics {
			out[mi].AddRow(fmt.Sprintf("%d", n), cells[mi])
		}
	}
	return out, nil
}

// throughputAndMemory is the Figure 1/2 layout: throughput + max retire
// list across a thread sweep. fixed=true keeps the paper's exact size
// (the 2K lists are already laptop-scale and their size is the point).
func throughputAndMemory(id, what, dsName string, paperSize int64, fixed bool, mix workload.Mix) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			size, threshold := paperSize, 24576
			if !fixed {
				size = scaleSize(c, paperSize)
				threshold = scaleThreshold(c, 24576)
			}
			cfg := harness.Config{
				DS:               dsName,
				KeyRange:         size,
				Mix:              mix,
				ReclaimThreshold: threshold,
			}
			return SweepThreads(c, what, cfg, c.policySet(false),
				[]Metric{mThroughput, mMaxRetire})
		},
	}
}

// throughputOnly is the Figure 3 layout.
func throughputOnly(id, what, dsName string, paperSize int64, mix workload.Mix) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			cfg := harness.Config{
				DS:               dsName,
				KeyRange:         scaleSize(c, paperSize),
				Mix:              mix,
				ReclaimThreshold: scaleThreshold(c, 24576),
			}
			return SweepThreads(c, what, cfg, c.policySet(false), []Metric{mThroughput})
		},
	}
}

// appendixFigure is the appendix D/E layout: update-heavy and read-heavy
// panels, each with throughput, peak resident memory and unreclaimed
// nodes (Figures 5-11).
func appendixFigure(id, what, dsName string, paperSize int64, fixed, withCrystalline bool) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			var out []report.Series
			size, threshold := paperSize, 24576
			if !fixed {
				size = scaleSize(c, paperSize)
				threshold = scaleThreshold(c, 24576)
			}
			for _, panel := range []struct {
				name string
				mix  workload.Mix
			}{
				{"update-heavy", workload.UpdateHeavy},
				{"read-heavy", workload.ReadHeavy},
			} {
				cfg := harness.Config{
					DS:               dsName,
					KeyRange:         size,
					Mix:              panel.mix,
					ReclaimThreshold: threshold,
				}
				series, err := SweepThreads(c, fmt.Sprintf("%s (%s)", what, panel.name),
					cfg, c.policySet(withCrystalline),
					[]Metric{mThroughput, mPeakRes, mUnreclaimed})
				if err != nil {
					return nil, err
				}
				out = append(out, series...)
			}
			return out, nil
		},
	}
}

// longReadsFigure is Figure 4: HML size sweep under the long-running-
// reads workload, plotting read-throughput ratio to NR and max retire
// list. The retire threshold is the paper's 2K (scaled).
func longReadsFigure() Figure {
	return Figure{
		ID:   "fig4",
		Desc: "Fig 4: long-running reads on HML, sizes 10K-800K; read throughput ratio vs NR and memory",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 2 {
				threads = 2
			}
			policies := c.policySet(false)
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			ratio := report.Series{
				Title:  "Fig 4a: HML long-running reads — read throughput ratio to NR",
				XLabel: "size",
				Names:  names,
			}
			mem := report.Series{
				Title:  "Fig 4b: HML long-running reads — max retireList size (nodes)",
				XLabel: "size",
				Names:  names,
			}
			for _, paperSize := range []int64{10_000, 50_000, 100_000, 400_000, 800_000} {
				size := scaleSize(c, paperSize)
				cells := make([]float64, len(policies))
				mems := make([]float64, len(policies))
				var nrTput float64
				run := func(p core.Policy) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         size,
						LongReads:        true,
						Seed:             c.Seed,
						ReclaimThreshold: scaleThreshold(c, 2048),
					})
				}
				c.Log("  fig4: size=%d policy=NR (baseline)", size)
				base, err := run(core.NR)
				if err != nil {
					return nil, err
				}
				nrTput = base.ReadTput
				for pi, p := range policies {
					var res harness.Result
					if p == core.NR {
						res = base
					} else {
						c.Log("  fig4: size=%d policy=%v", size, p)
						res, err = run(p)
						if err != nil {
							return nil, err
						}
					}
					if nrTput > 0 {
						cells[pi] = res.ReadTput / nrTput
					}
					mems[pi] = float64(res.MaxRetire)
				}
				label := fmt.Sprintf("%d", size)
				ratio.AddRow(label, cells)
				mem.AddRow(label, mems)
			}
			return []report.Series{ratio, mem}, nil
		},
	}
}

// readCostFigure quantifies §2.1.2: single-threaded read-path cost per
// scheme on a small HML (ns per contains).
func readCostFigure() Figure {
	return Figure{
		ID:   "readcost",
		Desc: "§2.1.2: single-thread read-path cost (ns/contains, HML size 1K)",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			policies := c.policySet(false)
			names := make([]string, len(policies))
			cells := make([]float64, len(policies))
			for i, p := range policies {
				names[i] = p.String()
				res, err := harness.Run(harness.Config{
					DS:       harness.DSHarrisMichaelList,
					Policy:   p,
					Threads:  1,
					Duration: c.Duration,
					KeyRange: 1024,
					Mix:      workload.Mix{ContainsPct: 100},
					Seed:     c.Seed,
				})
				if err != nil {
					return nil, err
				}
				if res.Ops > 0 {
					cells[i] = float64(c.Duration.Nanoseconds()) / float64(res.Ops)
				}
			}
			s := report.Series{Title: "Read-path cost — ns per contains (lower is better)", XLabel: "run", Names: names}
			s.AddRow("1 thread", cells)
			return []report.Series{s}, nil
		},
	}
}

// stallFigure is the robustness claim: a periodically delayed thread
// pins EBR's epoch; robust schemes keep garbage bounded.
func stallFigure() Figure {
	return Figure{
		ID:   "stall",
		Desc: "Robustness: unreclaimed garbage and throughput with a delayed thread",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 2 {
				threads = 2
			}
			policies := c.policySet(false)
			names := make([]string, len(policies))
			unre := make([]float64, len(policies))
			tput := make([]float64, len(policies))
			for i, p := range policies {
				names[i] = p.String()
				c.Log("  stall: policy=%v", p)
				res, err := harness.Run(harness.Config{
					DS:               harness.DSHarrisMichaelList,
					Policy:           p,
					Threads:          threads,
					Duration:         c.Duration,
					KeyRange:         2048,
					ReclaimThreshold: 128,
					StallEvery:       2 * time.Millisecond,
					StallLength:      c.Duration / 4,
					Seed:             c.Seed,
				})
				if err != nil {
					return nil, err
				}
				unre[i] = float64(res.Unreclaimed)
				tput[i] = res.Throughput
			}
			s1 := report.Series{Title: "Delayed thread — unreclaimed nodes at run end", XLabel: "run", Names: names}
			s1.AddRow("stall", unre)
			s2 := report.Series{Title: "Delayed thread — throughput (ops/s)", XLabel: "run", Names: names}
			s2.AddRow("stall", tput)
			return []report.Series{s1, s2}, nil
		},
	}
}

// ablateThreshold sweeps the retire-list threshold (the reclaimFreq knob;
// cf. Kim, Brown & Singh [36] on batch-free harm).
func ablateThreshold() Figure {
	return Figure{
		ID:   "ablate-threshold",
		Desc: "Ablation: retire-list threshold sweep on HML update-heavy",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			policies := []core.Policy{core.HP, core.HPAsym, core.HazardPtrPOP, core.EpochPOP, core.EBR, core.NBR}
			if c.Policies != nil {
				policies = c.Policies
			}
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			thr := report.Series{Title: "Threshold ablation — throughput (ops/s)", XLabel: "threshold", Names: names}
			mem := report.Series{Title: "Threshold ablation — peak resident nodes", XLabel: "threshold", Names: names}
			for _, threshold := range []int{128, 512, 2048, 8192} {
				tputs := make([]float64, len(policies))
				mems := make([]float64, len(policies))
				for pi, p := range policies {
					c.Log("  ablate-threshold: threshold=%d policy=%v", threshold, p)
					res, err := harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         2048,
						ReclaimThreshold: threshold,
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, err
					}
					tputs[pi] = res.Throughput
					mems[pi] = float64(res.PeakResident)
				}
				thr.AddRow(fmt.Sprintf("%d", threshold), tputs)
				mem.AddRow(fmt.Sprintf("%d", threshold), mems)
			}
			return []report.Series{thr, mem}, nil
		},
	}
}

// ablateEpochFreq sweeps the epoch-advance cadence for the epoch-based
// schemes.
func ablateEpochFreq() Figure {
	return Figure{
		ID:   "ablate-epochfreq",
		Desc: "Ablation: epoch frequency sweep for EBR/HE/IBR/EpochPOP on DGT",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			policies := []core.Policy{core.EBR, core.HE, core.IBR, core.HazardEraPOP, core.EpochPOP}
			if c.Policies != nil {
				policies = c.Policies
			}
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			thr := report.Series{Title: "EpochFreq ablation — throughput (ops/s)", XLabel: "epochFreq", Names: names}
			mem := report.Series{Title: "EpochFreq ablation — peak resident nodes", XLabel: "epochFreq", Names: names}
			for _, freq := range []int{16, 64, 256, 1024} {
				tputs := make([]float64, len(policies))
				mems := make([]float64, len(policies))
				for pi, p := range policies {
					c.Log("  ablate-epochfreq: freq=%d policy=%v", freq, p)
					res, err := harness.Run(harness.Config{
						DS:               harness.DSExternalBST,
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         scaleSize(c, 200_000),
						EpochFreq:        freq,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, err
					}
					tputs[pi] = res.Throughput
					mems[pi] = float64(res.PeakResident)
				}
				thr.AddRow(fmt.Sprintf("%d", freq), tputs)
				mem.AddRow(fmt.Sprintf("%d", freq), mems)
			}
			return []report.Series{thr, mem}, nil
		},
	}
}

// ablateCMult sweeps EpochPOP's escalation factor C under a stalling
// thread: small C escalates (pings) eagerly, large C tolerates garbage.
func ablateCMult() Figure {
	return Figure{
		ID:   "ablate-c",
		Desc: "Ablation: EpochPOP escalation factor C under a delayed thread",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 2 {
				threads = 2
			}
			names := []string{"throughput (ops/s)", "unreclaimed nodes", "POP reclaims", "pings sent"}
			s := report.Series{Title: "EpochPOP C ablation (delayed thread)", XLabel: "C", Names: names}
			for _, cm := range []int{2, 4, 8, 16} {
				c.Log("  ablate-c: C=%d", cm)
				res, err := harness.Run(harness.Config{
					DS:               harness.DSHarrisMichaelList,
					Policy:           core.EpochPOP,
					Threads:          threads,
					Duration:         c.Duration,
					KeyRange:         2048,
					ReclaimThreshold: 128,
					CMult:            cm,
					StallEvery:       2 * time.Millisecond,
					StallLength:      c.Duration / 4,
					Seed:             c.Seed,
				})
				if err != nil {
					return nil, err
				}
				s.AddRow(fmt.Sprintf("%d", cm), []float64{
					res.Throughput,
					float64(res.Unreclaimed),
					float64(res.Reclaim.POPReclaims),
					float64(res.Reclaim.PingsSent),
				})
			}
			return []report.Series{s}, nil
		},
	}
}

// scanHeavyFigure sweeps one range-capable structure under the
// scan-heavy mix: half the operations are multi-key ordered scans, each
// one long operation whose reservations stay pinned across every hop.
// This is the structural extreme of the paper's long-running-reads
// argument — the regime where cheap reservation publication (POP)
// should matter most. Running it on both the skiplist (per-node
// reservation chains) and the (a,b)-tree (whole-leaf reservations)
// separates reservation count from reservation lifetime; the series
// include scan-latency quantiles so the per-policy tail is visible, not
// just the mean.
func scanHeavyFigure(id, what, dsName string, paperSize int64) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			cfg := harness.Config{
				DS:               dsName,
				KeyRange:         scaleSize(c, paperSize),
				Mix:              workload.ScanHeavy,
				RangeSpan:        100,
				ReclaimThreshold: scaleThreshold(c, 2048),
			}
			return SweepThreads(c, what, cfg, c.policySet(false),
				[]Metric{mThroughput, mRangeTput, mScanP50, mScanP99, mMaxRetire, mUnreclaimed})
		},
	}
}

// kvFigure sweeps one structure under the KV-serving mix (70% get /
// 10% put / 15% overwrite / 5% delete) with per-operation latency
// profiling on: the series report KV throughput plus the read and
// write tails (p50/p99 per op class). Overwrites replace values on
// present keys — a retirement per overwrite on the replace-node
// structures — so this is the reclamation pressure a value-serving
// workload adds on top of the paper's key-only churn.
func kvFigure(id, what, dsName string, paperSize int64) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			cfg := harness.Config{
				DS:               dsName,
				KeyRange:         scaleSize(c, paperSize),
				Mix:              workload.KVStore,
				OpLatency:        true,
				ReclaimThreshold: scaleThreshold(c, 24576),
			}
			return SweepThreads(c, what, cfg, c.policySet(false), []Metric{
				mThroughput,
				OpLatencyMetric("get p50 (µs)", harness.OpGet, 0.50),
				OpLatencyMetric("get p99 (µs)", harness.OpGet, 0.99),
				OpLatencyMetric("put p99 (µs)", harness.OpPut, 0.99),
				OpLatencyMetric("overwrite p99 (µs)", harness.OpOverwrite, 0.99),
				OpLatencyMetric("delete p99 (µs)", harness.OpDelete, 0.99),
				mMaxRetire,
			})
		},
	}
}

// StoreMetric extracts one plotted value from a store trial result.
type StoreMetric struct {
	Name string
	Get  func(harness.StoreResult) float64
}

// StoreOpLatencyMetric builds a metric reading quantile q (in
// microseconds) of one store operation class's latency histogram; 0
// when the class was not profiled.
func StoreOpLatencyMetric(name string, class harness.StoreOpClass, q float64) StoreMetric {
	return StoreMetric{Name: name, Get: func(r harness.StoreResult) float64 {
		h := r.OpLat[class]
		if h == nil {
			return 0
		}
		return h.Quantile(q) / 1e3
	}}
}

// SweepStoreThreads runs cfgBase for every (policy, thread-count) pair
// and builds one series per metric — SweepThreads for store trials.
func SweepStoreThreads(c Ctx, title string, cfgBase harness.StoreConfig, policies []core.Policy, metrics []StoreMetric) ([]report.Series, error) {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.String()
	}
	out := make([]report.Series, len(metrics))
	for i, m := range metrics {
		out[i] = report.Series{
			Title:  fmt.Sprintf("%s — %s", title, m.Name),
			XLabel: "threads",
			Names:  names,
		}
	}
	for _, n := range c.Threads {
		cells := make([][]float64, len(metrics))
		for i := range cells {
			cells[i] = make([]float64, len(policies))
		}
		for pi, p := range policies {
			cfg := cfgBase
			cfg.Policy = p
			cfg.Threads = n
			cfg.Duration = c.Duration
			cfg.Seed = c.Seed
			c.Log("  %s: threads=%d policy=%v", title, n, p)
			res, err := harness.RunStore(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s [threads=%d policy=%v]: %w", title, n, p, err)
			}
			for mi, m := range metrics {
				cells[mi][pi] = m.Get(res)
			}
		}
		for mi := range metrics {
			out[mi].AddRow(fmt.Sprintf("%d", n), cells[mi])
		}
	}
	return out, nil
}

// storeServeFigure sweeps the KV-serving front: an 8-shard skiplist
// store under the StoreServe mix with Zipfian key popularity — single
// gets, batched multi-gets (one protected operation per shard per
// batch), value-returning scans, and 16–256 B payload writes whose
// replaced values retire through the core reclamation path. The series
// report the serving tails per policy plus the stale-read count: how
// often a value read lost to an overwrite's reclamation and retried,
// the read-side signature of each policy's retire-to-free latency.
func storeServeFigure() Figure {
	return Figure{
		ID:   "store-serve",
		Desc: "Store: 8-shard skiplist KV front, zipf(0.99) serving mix; throughput, per-class tails, stale reads",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			cfg := harness.StoreConfig{
				Keys:             scaleSize(c, 4_000_000),
				Shards:           8,
				Dist:             workload.Zipf,
				OpLatency:        true,
				ReclaimThreshold: scaleThreshold(c, 24576),
			}
			return SweepStoreThreads(c, "Store serve (skl ×8 shards, zipf)", cfg, c.policySet(false), []StoreMetric{
				{Name: "throughput (ops/s)", Get: func(r harness.StoreResult) float64 { return r.Throughput }},
				{Name: "served keys/s", Get: func(r harness.StoreResult) float64 { return r.KeyTput }},
				StoreOpLatencyMetric("get p50 (µs)", harness.SOpGet, 0.50),
				StoreOpLatencyMetric("get p99 (µs)", harness.SOpGet, 0.99),
				StoreOpLatencyMetric("mget p99 (µs)", harness.SOpMGet, 0.99),
				StoreOpLatencyMetric("scan p99 (µs)", harness.SOpScan, 0.99),
				StoreOpLatencyMetric("put p99 (µs)", harness.SOpPut, 0.99),
				{Name: "stale value reads", Get: func(r harness.StoreResult) float64 { return float64(r.Stale) }},
				{Name: "value checksum failures", Get: func(r harness.StoreResult) float64 { return float64(r.ValueErrors) }},
				{Name: "unreclaimed at run end (nodes)", Get: func(r harness.StoreResult) float64 { return float64(r.Unreclaimed) }},
			})
		},
	}
}

// pingFanoutFigure is the domain-group scaling experiment: the same
// 32-shard store swept over grouping factors g ∈ {1, shards/4, shards}
// at thread counts up to 64+, under the POP policies whose reclaimers
// ping. With one flat domain (g=1) every reclamation pass pings and
// scans all T registered threads; with g members a pass covers only the
// threads leased into that member — O(readers-per-shard-group), not
// O(total threads). The series plot throughput, the write tail (puts
// absorb reclamation pauses), and the measured per-pass ping/scan
// fan-out, so the claimed reduction is read directly off the figure
// rather than inferred.
func pingFanoutFigure() Figure {
	return Figure{
		ID:   "pingfanout",
		Desc: "Domain groups: 32-shard store, groups ∈ {1,8,32}, threads to 64+ — throughput, put p99, per-pass ping/scan fan-out",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			// The fan-out claim is about many threads; make sure the sweep
			// reaches 64 even under the default thread list.
			threads := append([]int(nil), c.Threads...)
			if threads[len(threads)-1] < 64 {
				threads = append(threads, 64)
			}
			const shards = 32
			groups := []int{1, shards / 4, shards}
			policies := []core.Policy{core.EpochPOP, core.HazardPtrPOP}
			if c.Policies != nil {
				policies = c.Policies
			}
			type variant struct {
				p core.Policy
				g int
			}
			var vs []variant
			names := make([]string, 0, len(policies)*len(groups))
			for _, p := range policies {
				for _, g := range groups {
					vs = append(vs, variant{p, g})
					names = append(names, fmt.Sprintf("%v g=%d", p, g))
				}
			}
			metrics := []StoreMetric{
				{Name: "throughput (ops/s)", Get: func(r harness.StoreResult) float64 { return r.Throughput }},
				StoreOpLatencyMetric("get p99 (µs)", harness.SOpGet, 0.99),
				StoreOpLatencyMetric("put p99 (µs)", harness.SOpPut, 0.99),
				{Name: "reclaim pings per pass", Get: func(r harness.StoreResult) float64 { return r.ReclaimDetail.PingsPerPass }},
				{Name: "reclaim threads scanned per pass", Get: func(r harness.StoreResult) float64 { return r.ReclaimDetail.ScannedPerPass }},
				{Name: "unreclaimed at run end (nodes)", Get: func(r harness.StoreResult) float64 { return float64(r.Unreclaimed) }},
			}
			out := make([]report.Series, len(metrics))
			for i, m := range metrics {
				out[i] = report.Series{
					Title:  fmt.Sprintf("Ping fan-out (skl ×%d shards, zipf) — %s", shards, m.Name),
					XLabel: "threads",
					Names:  names,
				}
			}
			for _, n := range threads {
				cells := make([][]float64, len(metrics))
				for i := range cells {
					cells[i] = make([]float64, len(vs))
				}
				for vi, v := range vs {
					c.Log("  pingfanout: threads=%d policy=%v groups=%d", n, v.p, v.g)
					res, err := harness.RunStore(harness.StoreConfig{
						Policy:   v.p,
						Threads:  n,
						Duration: c.Duration,
						Keys:     scaleSize(c, 4_000_000),
						Shards:   shards,
						Groups:   v.g,
						// Scan-free serving mix: a scan visits every shard and
						// leases its worker into every member, which would
						// flatten the per-member fan-out this figure measures.
						// The batched-put share exercises PutBatch's
						// one-protected-op-per-shard-group write path.
						Mix:              workload.StoreMix{GetPct: 60, PutPct: 15, MGetPct: 10, MPutPct: 10, DeletePct: 5},
						Dist:             workload.Zipf,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, fmt.Errorf("pingfanout [threads=%d policy=%v groups=%d]: %w", n, v.p, v.g, err)
					}
					for mi, m := range metrics {
						cells[mi][vi] = m.Get(res)
					}
				}
				for mi := range metrics {
					out[mi].AddRow(fmt.Sprintf("%d", n), cells[mi])
				}
			}
			return out, nil
		},
	}
}

// ycsbFigure runs the six YCSB core workloads (Cooper et al., SoCC'10)
// against the KV front at the sweep's top thread count: one row per
// workload A–F, one column per policy. The mixes move the reclamation
// pressure around — A/F are overwrite- and RMW-heavy (a retirement per
// hit), B/C/D nearly read-only, D shifts popularity to the insert
// frontier (latest), E holds scans open across churn — so the figure
// shows which schedules separate the policies, not just how hard one
// mix can be pushed.
func ycsbFigure() Figure {
	return Figure{
		ID:   "ycsb",
		Desc: "YCSB A–F on the 8-shard skiplist store: throughput and per-class tails per policy across the six core mixes",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			policies := c.policySet(false)
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			metrics := []StoreMetric{
				{Name: "throughput (ops/s)", Get: func(r harness.StoreResult) float64 { return r.Throughput }},
				StoreOpLatencyMetric("get p99 (µs)", harness.SOpGet, 0.99),
				StoreOpLatencyMetric("put p99 (µs)", harness.SOpPut, 0.99),
				StoreOpLatencyMetric("rmw p99 (µs)", harness.SOpRMW, 0.99),
				StoreOpLatencyMetric("scan p99 (µs)", harness.SOpScan, 0.99),
				{Name: "value checksum failures", Get: func(r harness.StoreResult) float64 { return float64(r.ValueErrors) }},
				{Name: "unreclaimed at run end (nodes)", Get: func(r harness.StoreResult) float64 { return float64(r.Unreclaimed) }},
			}
			out := make([]report.Series, len(metrics))
			for i, m := range metrics {
				out[i] = report.Series{
					Title:  fmt.Sprintf("YCSB A–F (skl ×8 shards, %d threads) — %s", threads, m.Name),
					XLabel: "workload",
					Names:  names,
				}
			}
			for _, w := range workload.YCSBWorkloads() {
				cells := make([][]float64, len(metrics))
				for i := range cells {
					cells[i] = make([]float64, len(policies))
				}
				for pi, p := range policies {
					c.Log("  ycsb: workload=%s policy=%v", w.Name, p)
					res, err := harness.RunStore(harness.StoreConfig{
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						Keys:             scaleSize(c, 4_000_000),
						Shards:           8,
						Mix:              w.Mix,
						Dist:             w.Dist,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, fmt.Errorf("ycsb [%s policy=%v]: %w", w.Name, p, err)
					}
					for mi, m := range metrics {
						cells[mi][pi] = m.Get(res)
					}
				}
				for mi := range metrics {
					out[mi].AddRow(w.Name, cells[mi])
				}
			}
			return out, nil
		},
	}
}

// hotpathFigure isolates the value-encoding fast path: the same YCSB-B
// serving run (95% get / 5% overwrite, zipf) at 64 threads on the
// skiplist and hash-table backings, once with 6-byte values — every one
// inline-encoded into the map word, no arena traffic, no stale-read
// window — and once with 64-byte values through the arena path. Rows
// are policies, columns the backing × encoding variants, so the
// inline-vs-arena read win (get p50) and the allocation diet
// (allocs/op, alloc bytes/op) are read directly off each row.
func hotpathFigure() Figure {
	return Figure{
		ID:   "hotpath",
		Desc: "Hot path: YCSB-B at 64 threads, inline 6 B vs arena 64 B values on skl and hmht — get p50/p99, allocs/op",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 64 {
				threads = 64
			}
			w, err := workload.ParseYCSB("B")
			if err != nil {
				return nil, err
			}
			type variant struct {
				backing string
				valLen  int
				label   string
			}
			vs := []variant{
				{store.BackingSkipList, 6, "skl inline 6B"},
				{store.BackingSkipList, 64, "skl arena 64B"},
				{store.BackingHashTable, 6, "hmht inline 6B"},
				{store.BackingHashTable, 64, "hmht arena 64B"},
			}
			names := make([]string, len(vs))
			for i, v := range vs {
				names[i] = v.label
			}
			policies := c.policySet(false)
			metrics := []StoreMetric{
				{Name: "throughput (ops/s)", Get: func(r harness.StoreResult) float64 { return r.Throughput }},
				StoreOpLatencyMetric("get p50 (µs)", harness.SOpGet, 0.50),
				StoreOpLatencyMetric("get p99 (µs)", harness.SOpGet, 0.99),
				StoreOpLatencyMetric("put p99 (µs)", harness.SOpPut, 0.99),
				{Name: "allocs/op", Get: func(r harness.StoreResult) float64 { return r.AllocsPerOp }},
				{Name: "alloc bytes/op", Get: func(r harness.StoreResult) float64 { return r.AllocBytesPerOp }},
				{Name: "stale value reads", Get: func(r harness.StoreResult) float64 { return float64(r.Stale) }},
				{Name: "value checksum failures", Get: func(r harness.StoreResult) float64 { return float64(r.ValueErrors) }},
			}
			out := make([]report.Series, len(metrics))
			for i, m := range metrics {
				out[i] = report.Series{
					Title:  fmt.Sprintf("Hot path (YCSB B, %d threads, 8 shards) — %s", threads, m.Name),
					XLabel: "policy",
					Names:  names,
				}
			}
			for _, p := range policies {
				cells := make([][]float64, len(metrics))
				for i := range cells {
					cells[i] = make([]float64, len(vs))
				}
				for vi, v := range vs {
					c.Log("  hotpath: policy=%v %s", p, v.label)
					res, err := harness.RunStore(harness.StoreConfig{
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						Keys:             scaleSize(c, 4_000_000),
						Shards:           8,
						Backing:          v.backing,
						Mix:              w.Mix,
						Dist:             w.Dist,
						ValueMin:         v.valLen,
						ValueMax:         v.valLen,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, fmt.Errorf("hotpath [policy=%v %s]: %w", p, v.label, err)
					}
					for mi, m := range metrics {
						cells[mi][vi] = m.Get(res)
					}
				}
				for mi := range metrics {
					out[mi].AddRow(p.String(), cells[mi])
				}
			}
			return out, nil
		},
	}
}

// ServeMetric extracts one plotted value from a serve trial result.
type ServeMetric struct {
	Name string
	Get  func(harness.ServeResult) float64
}

// ServeLatencyMetric builds a metric reading quantile q (µs) of a
// client-observed latency histogram chosen by pick.
func ServeLatencyMetric(name string, pick func(harness.ServeResult) *report.Histogram, q float64) ServeMetric {
	return ServeMetric{Name: name, Get: func(r harness.ServeResult) float64 {
		h := pick(r)
		if h == nil {
			return 0
		}
		return h.Quantile(q) / 1e3
	}}
}

// SweepServeConns runs cfgBase for every (policy, connection-count)
// pair — the serving front's capacity view: how client-observed tails
// and admission waits move as connections overcommit the slot budget.
func SweepServeConns(c Ctx, title string, cfgBase harness.ServeConfig, conns []int, policies []core.Policy, metrics []ServeMetric) ([]report.Series, error) {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.String()
	}
	out := make([]report.Series, len(metrics))
	for i, m := range metrics {
		out[i] = report.Series{
			Title:  fmt.Sprintf("%s — %s", title, m.Name),
			XLabel: "conns",
			Names:  names,
		}
	}
	for _, n := range conns {
		cells := make([][]float64, len(metrics))
		for i := range cells {
			cells[i] = make([]float64, len(policies))
		}
		for pi, p := range policies {
			cfg := cfgBase
			cfg.Policy = p
			cfg.Conns = n
			cfg.Duration = c.Duration
			cfg.Seed = c.Seed
			c.Log("  %s: conns=%d policy=%v", title, n, p)
			res, err := harness.RunServe(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s [conns=%d policy=%v]: %w", title, n, p, err)
			}
			for mi, m := range metrics {
				cells[mi][pi] = m.Get(res)
			}
		}
		for mi := range metrics {
			out[mi].AddRow(fmt.Sprintf("%d", n), cells[mi])
		}
	}
	return out, nil
}

// serveMetrics is the canonical serve-trial metric set: throughput,
// client-observed get/set tails, the admission-queue wait distribution,
// the coalescing counters, and the correctness columns (checksum
// failures and leaked leases, both of which must be zero).
func ServeMetrics() []ServeMetric {
	getH := func(r harness.ServeResult) *report.Histogram { return r.GetLat }
	setH := func(r harness.ServeResult) *report.Histogram { return r.SetLat }
	admH := func(r harness.ServeResult) *report.Histogram { return r.AdmWait }
	return []ServeMetric{
		{Name: "throughput (ops/s)", Get: func(r harness.ServeResult) float64 { return r.Throughput }},
		ServeLatencyMetric("get latency p50 (µs)", getH, 0.50),
		ServeLatencyMetric("get latency p99 (µs)", getH, 0.99),
		{Name: "get latency max (µs)", Get: func(r harness.ServeResult) float64 {
			if r.GetLat == nil {
				return 0
			}
			return float64(r.GetLat.Max()) / 1e3
		}},
		ServeLatencyMetric("set latency p50 (µs)", setH, 0.50),
		ServeLatencyMetric("set latency p99 (µs)", setH, 0.99),
		ServeLatencyMetric("admission wait p50 (µs)", admH, 0.50),
		ServeLatencyMetric("admission wait p99 (µs)", admH, 0.99),
		{Name: "admission waits (queued bursts)", Get: func(r harness.ServeResult) float64 { return float64(r.Server.AdmissionWaits) }},
		{Name: "coalesced gets", Get: func(r harness.ServeResult) float64 { return float64(r.Server.CoalescedGets) }},
		{Name: "coalesced batches", Get: func(r harness.ServeResult) float64 { return float64(r.Server.CoalescedBatches) }},
		{Name: "value checksum failures", Get: func(r harness.ServeResult) float64 { return float64(r.ValueErrors) }},
		{Name: "leaked leases after shutdown", Get: func(r harness.ServeResult) float64 { return float64(r.Lifecycle.Leased) }},
	}
}

// serveFigure sweeps the wire-protocol serving front: a live popserve
// instance with 4 admission slots, swept from slot-parity up to 8×
// overcommitted connections under a zipf get/set mix. Client-observed
// tails include protocol framing, burst admission queueing, and the
// coalescing window — the end-to-end serving cost of each reclamation
// policy, not just its in-process op latency.
func serveFigure() Figure {
	return Figure{
		ID:   "serve",
		Desc: "Serving front: live TCP memcached-text server, conns ≫ slots; client tails, admission waits, coalescing",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			const slots = 4
			cfg := harness.ServeConfig{
				Slots:  slots,
				Keys:   scaleSize(c, 1_000_000),
				Shards: 4,
				Dist:   workload.Zipf,
			}
			return SweepServeConns(c, fmt.Sprintf("Serve (skl ×4 shards, %d slots, zipf)", slots),
				cfg, []int{slots, 4 * slots, 8 * slots}, c.policySet(false), ServeMetrics())
		},
	}
}

// nbrOverwriteFigure is the NBR overwrite-tail ablation the per-op
// histograms motivated: overwrites are where NBR restart storms live,
// because an overwrite's write phase (mark + link CAS) can be
// neutralized and restarted arbitrarily often under reclamation
// pressure. The sweep holds the structure and key range fixed and
// dials only OverwritePct: each row reports throughput, the overwrite
// p99, NBR's neutralization-induced restarts, and publish-handler runs
// (the ack side of neutralization), so the restart storm's onset and
// cost are directly comparable against the restart-free schemes.
func nbrOverwriteFigure() Figure {
	return Figure{
		ID:   "nbr-overwrite",
		Desc: "Ablation: OverwritePct ∈ {0,5,15,30,50} on HML — overwrite p99, NBR restarts/neutralizations vs restart-free schemes",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 2 {
				threads = 2
			}
			policies := []core.Policy{core.EBR, core.NBR, core.HazardPtrPOP, core.EpochPOP}
			if c.Policies != nil {
				policies = c.Policies
			}
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			mk := func(metric string) report.Series {
				return report.Series{
					Title:  fmt.Sprintf("NBR overwrite ablation (HML, %d threads) — %s", threads, metric),
					XLabel: "overwritePct",
					Names:  names,
				}
			}
			thr, p99 := mk("throughput (ops/s)"), mk("overwrite p99 (µs)")
			restarts, pubs := mk("NBR restarts"), mk("publish-handler runs")
			for _, pct := range []int{0, 5, 15, 30, 50} {
				cells := [4][]float64{}
				for i := range cells {
					cells[i] = make([]float64, len(policies))
				}
				for pi, p := range policies {
					c.Log("  nbr-overwrite: pct=%d policy=%v", pct, p)
					res, err := harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         2048,
						Mix:              workload.Mix{ContainsPct: 100 - pct, OverwritePct: pct},
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 2048),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, err
					}
					cells[0][pi] = res.Throughput
					if h := res.OpLat[harness.OpOverwrite]; h != nil {
						cells[1][pi] = h.Quantile(0.99) / 1e3
					}
					cells[2][pi] = float64(res.Reclaim.Restarts)
					cells[3][pi] = float64(res.Reclaim.Publishes)
				}
				x := fmt.Sprintf("%d", pct)
				thr.AddRow(x, cells[0])
				p99.AddRow(x, cells[1])
				restarts.AddRow(x, cells[2])
				pubs.AddRow(x, cells[3])
			}
			return []report.Series{thr, p99, restarts, pubs}, nil
		},
	}
}

// churnFigure sweeps worker turnover: the KV-serving mix on the
// skiplist with the elastic harness mode, dialing how many operations
// each thread incarnation performs before releasing its slot (and
// donating its retire list) — from no churn down to a lease every 1K
// ops. The series show what thread turnover costs each policy: the
// read and overwrite tails (a release wipes no published work, but
// orphan adoption batches garbage onto whichever thread reclaims
// next), end-of-run garbage, and the lifecycle counters (releases,
// orphan nodes donated/adopted) that make the churn explainable.
func churnFigure() Figure {
	return Figure{
		ID:   "churn",
		Desc: "Elastic serving: worker churn (release/respawn) on SKL KV mix — tails, orphan adoption, memory under turnover",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 2 {
				threads = 2
			}
			policies := c.policySet(false)
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.String()
			}
			mk := func(metric string) report.Series {
				return report.Series{
					Title:  fmt.Sprintf("Worker churn (SKL kv, %d threads) — %s", threads, metric),
					XLabel: "opsPerLease",
					Names:  names,
				}
			}
			series := []report.Series{
				mk("throughput (ops/s)"),
				mk("get latency p99 (µs)"),
				mk("overwrite latency p99 (µs)"),
				mk("unreclaimed at run end (nodes)"),
				mk("thread releases"),
				mk("orphan nodes adopted"),
			}
			for _, afterOps := range []uint64{0, 20000, 5000, 1000} {
				cells := make([][]float64, len(series))
				for i := range cells {
					cells[i] = make([]float64, len(policies))
				}
				for pi, p := range policies {
					c.Log("  churn: opsPerLease=%d policy=%v", afterOps, p)
					res, err := harness.Run(harness.Config{
						DS:               harness.DSSkipList,
						Policy:           p,
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         scaleSize(c, 1_000_000),
						Mix:              workload.KVStore,
						Churn:            workload.Churn{AfterOps: afterOps},
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
					if err != nil {
						return nil, err
					}
					cells[0][pi] = res.Throughput
					if h := res.OpLat[harness.OpGet]; h != nil {
						cells[1][pi] = h.Quantile(0.99) / 1e3
					}
					if h := res.OpLat[harness.OpOverwrite]; h != nil {
						cells[2][pi] = h.Quantile(0.99) / 1e3
					}
					cells[3][pi] = float64(res.Unreclaimed)
					cells[4][pi] = float64(res.Lifecycle.Releases)
					cells[5][pi] = float64(res.Lifecycle.OrphansAdopted)
				}
				x := "none"
				if afterOps > 0 {
					x = fmt.Sprintf("%d", afterOps)
				}
				for i := range series {
					series[i].AddRow(x, cells[i])
				}
			}
			return series, nil
		},
	}
}

// All returns every figure in presentation order.
func All() []Figure {
	return []Figure{
		throughputAndMemory("fig1a", "Fig 1a: DGT (ext. BST) 200K update-heavy", harness.DSExternalBST, 200_000, false, workload.UpdateHeavy),
		throughputAndMemory("fig1b", "Fig 1b: HMHT (hash table) 6M update-heavy", harness.DSHashTable, 6_000_000, false, workload.UpdateHeavy),
		throughputAndMemory("fig1c", "Fig 1c: ABT ((a,b)-tree) 20M update-heavy", harness.DSABTree, 20_000_000, false, workload.UpdateHeavy),
		throughputAndMemory("fig2a", "Fig 2a: HML (Harris-Michael list) 2K update-heavy", harness.DSHarrisMichaelList, 2_000, true, workload.UpdateHeavy),
		throughputAndMemory("fig2b", "Fig 2b: LL (lazy list) 2K update-heavy", harness.DSLazyList, 2_000, true, workload.UpdateHeavy),
		throughputOnly("fig3a", "Fig 3a: ABT 20M read-heavy", harness.DSABTree, 20_000_000, workload.ReadHeavy),
		throughputOnly("fig3b", "Fig 3b: DGT 200K read-heavy", harness.DSExternalBST, 200_000, workload.ReadHeavy),
		longReadsFigure(),
		appendixFigure("fig5", "Fig 5: ABT 20M (appendix D)", harness.DSABTree, 20_000_000, false, false),
		appendixFigure("fig6", "Fig 6: DGT 2M (appendix D)", harness.DSExternalBST, 2_000_000, false, false),
		appendixFigure("fig7", "Fig 7: HT 6M (appendix D)", harness.DSHashTable, 6_000_000, false, false),
		appendixFigure("fig8", "Fig 8: HML 2K (appendix D)", harness.DSHarrisMichaelList, 2_000, true, false),
		appendixFigure("fig9", "Fig 9: LL 2K (appendix D)", harness.DSLazyList, 2_000, true, false),
		appendixFigure("fig10", "Fig 10: HML 2K + Crystalline (appendix E)", harness.DSHarrisMichaelList, 2_000, true, true),
		appendixFigure("fig11", "Fig 11: HT 6M + Crystalline (appendix E)", harness.DSHashTable, 6_000_000, false, true),
		throughputAndMemory("skl-update", "SKL (skiplist) 1M update-heavy", harness.DSSkipList, 1_000_000, false, workload.UpdateHeavy),
		scanHeavyFigure("skl-scan", "SKL (skiplist) 1M scan-heavy: range queries under churn, throughput + scan tail latency + memory", harness.DSSkipList, 1_000_000),
		scanHeavyFigure("abt-scan", "ABT ((a,b)-tree) 1M scan-heavy: whole-leaf range scans under churn, throughput + scan tail latency + memory", harness.DSABTree, 1_000_000),
		kvFigure("skl-kv", "SKL (skiplist) 1M KV-serving mix: get/put/overwrite/delete with per-op-class tail latency", harness.DSSkipList, 1_000_000),
		kvFigure("hmht-kv", "HMHT (hash table) 6M KV-serving mix: get/put/overwrite/delete with per-op-class tail latency", harness.DSHashTable, 6_000_000),
		storeServeFigure(),
		pingFanoutFigure(),
		ycsbFigure(),
		hotpathFigure(),
		serveFigure(),
		nbrOverwriteFigure(),
		churnFigure(),
		timelineFigure(),
		readCostFigure(),
		stallFigure(),
		ablateThreshold(),
		ablateEpochFreq(),
		ablateCMult(),
	}
}

// Get resolves a figure by id.
func Get(id string) (Figure, bool) {
	for _, f := range All() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// TimelineSeries renders a sampled timeline as one series: a row per
// sample, columns for the window's op count, frees, pings, the
// unreclaimed watermark, stalled readers, and the per-window ping-ack
// p99 — the CSV/TSV form of the live /timeline endpoint, for plotting
// a single run over time.
func TimelineSeries(title string, tl *telemetry.Timeline) report.Series {
	s := report.Series{
		Title:  title,
		XLabel: "t_ms",
		Names:  []string{"ops", "frees", "pings", "unreclaimed", "stalled", "ping_ack_p99_us"},
	}
	for i := range tl.Samples {
		sm := &tl.Samples[i]
		s.AddRow(fmt.Sprintf("%.0f", sm.At), []float64{
			float64(sm.Ops),
			float64(sm.Stats.Frees),
			float64(sm.Stats.PingsSent),
			float64(sm.Unreclaimed),
			float64(sm.Stalled),
			sm.PingAckP99,
		})
	}
	return s
}

// timelineFigure is the observability experiment: a YCSB-A run on the
// grouped store, sampled live, with a stalled-reader chaos burst
// injected for the middle quarter of the run. The series plot the
// unreclaimed watermark, per-window throughput, per-window ping-ack
// p99 and the stalled-reader gauge over time, one column per policy —
// the §5.1.2 story as a live trace: garbage climbs while the stalled
// readers pin their windows, pings flush it back down after the burst
// lifts (epoch-style schemes recover late; POP schemes recover on the
// next pass).
func timelineFigure() Figure {
	return Figure{
		ID:   "timeline",
		Desc: "Telemetry: YCSB-A grouped store sampled live under a stalled-reader burst — unreclaimed watermark, throughput, ping-ack p99 over time",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			threads := c.Threads[len(c.Threads)-1]
			if threads < 4 {
				threads = 4
			}
			policies := []core.Policy{core.EBR, core.NBR, core.HazardPtrPOP, core.EpochPOP}
			if c.Policies != nil {
				policies = c.Policies
			}
			w, err := workload.ParseYCSB("A")
			if err != nil {
				return nil, err
			}
			every := c.Duration / 24
			if every < time.Millisecond {
				every = time.Millisecond
			}
			names := make([]string, len(policies))
			tls := make([]*telemetry.Timeline, len(policies))
			for i, p := range policies {
				names[i] = p.String()
				c.Log("  timeline: policy=%v (sample %v, burst %v..%v)", p, every, c.Duration/4, c.Duration/2)
				res, err := harness.RunStore(harness.StoreConfig{
					Policy:   p,
					Threads:  threads,
					Duration: c.Duration,
					Keys:     scaleSize(c, 4_000_000),
					Shards:   8,
					Groups:   8,
					Mix:      w.Mix,
					Dist:     w.Dist,
					// Stalled readers only: the burst must be attributable to
					// pinned read windows, not GC or lease churn.
					Chaos:            chaos.Config{Stalls: 2},
					ChaosStart:       c.Duration / 4,
					ChaosStop:        c.Duration / 2,
					SampleEvery:      every,
					ReclaimThreshold: scaleThreshold(c, 24576),
					Seed:             c.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("timeline [policy=%v]: %w", p, err)
				}
				if res.Timeline == nil {
					return nil, fmt.Errorf("timeline [policy=%v]: sampled run returned no timeline", p)
				}
				tls[i] = res.Timeline
			}
			mk := func(metric string) report.Series {
				return report.Series{
					Title:  fmt.Sprintf("Timeline (YCSB A, skl ×8 shards g8, %d threads, stall burst) — %s", threads, metric),
					XLabel: "t_ms",
					Names:  names,
				}
			}
			series := []report.Series{
				mk("unreclaimed watermark (nodes)"),
				mk("window ops"),
				mk("window ping-ack p99 (µs)"),
				mk("stalled readers"),
			}
			rows := 0
			for _, tl := range tls {
				if len(tl.Samples) > rows {
					rows = len(tl.Samples)
				}
			}
			// Policies finish with slightly different sample counts; carry
			// each run's last sample forward so rows stay aligned by index.
			for ri := 0; ri < rows; ri++ {
				cells := make([][]float64, len(series))
				for i := range cells {
					cells[i] = make([]float64, len(policies))
				}
				for pi, tl := range tls {
					si := ri
					if si >= len(tl.Samples) {
						si = len(tl.Samples) - 1
					}
					sm := &tl.Samples[si]
					cells[0][pi] = float64(sm.Unreclaimed)
					cells[1][pi] = float64(sm.Ops)
					cells[2][pi] = sm.PingAckP99
					cells[3][pi] = float64(sm.Stalled)
				}
				x := fmt.Sprintf("%d", (int64(ri)+1)*every.Milliseconds())
				for i := range series {
					series[i].AddRow(x, cells[i])
				}
			}
			return series, nil
		},
	}
}
