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
// paper plots. cmd/popbench renders them (-figure), and builds its
// direct sweeps on the same Grid.
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

// Metric extracts one plotted value from a trial result of type R
// (harness.Result, harness.StoreResult or harness.ServeResult).
type Metric[R any] struct {
	Name string
	Get  func(R) float64
}

// LatencyMetric builds a metric reading quantile q, in microseconds, of
// the latency histogram pick selects; 0 when that histogram is absent
// (the class was not profiled, the mix had no scans). q = 1 is the worst
// observed latency, exactly.
func LatencyMetric[R any](name string, pick func(R) *report.Histogram, q float64) Metric[R] {
	return Metric[R]{Name: name, Get: func(r R) float64 {
		h := pick(r)
		if h == nil {
			return 0
		}
		return h.Quantile(q) / 1e3
	}}
}

// Grid is the table every sweep builds: one trial per (row, column), one
// series per metric, titled "<Title> — <metric name>". Rows are the
// x-axis labels in sweep order, Cols the column names (policies, in most
// figures); Run executes the trial for row r, column c.
type Grid[R any] struct {
	Title   string
	XLabel  string
	Rows    []string
	Cols    []string
	Metrics []Metric[R]
	Run     func(r, c int) (R, error)
}

// Series runs the grid row by row, column by column within a row, and
// returns one series per metric. A trial error is returned wrapped with
// the cell that hit it. log (non-nil) receives one progress line per
// trial.
func (g Grid[R]) Series(log func(string, ...any)) ([]report.Series, error) {
	out := make([]report.Series, len(g.Metrics))
	for i, m := range g.Metrics {
		out[i] = report.Series{
			Title:  fmt.Sprintf("%s — %s", g.Title, m.Name),
			XLabel: g.XLabel,
			Names:  g.Cols,
		}
	}
	for r, row := range g.Rows {
		cells := make([][]float64, len(g.Metrics))
		for i := range cells {
			cells[i] = make([]float64, len(g.Cols))
		}
		for c, col := range g.Cols {
			log("  %s: %s=%s %s", g.Title, g.XLabel, row, col)
			res, err := g.Run(r, c)
			if err != nil {
				return nil, fmt.Errorf("%s [%s=%s %s]: %w", g.Title, g.XLabel, row, col, err)
			}
			for mi, m := range g.Metrics {
				cells[mi][c] = m.Get(res)
			}
		}
		for mi := range out {
			out[mi].AddRow(row, cells[mi])
		}
	}
	return out, nil
}

// PolicyNames returns the policies' column names.
func PolicyNames(ps []core.Policy) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return names
}

// Labels formats a swept integer axis (thread counts, thresholds) as row
// labels.
func Labels[T int | uint64](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// The metrics several figures share.
var (
	mThroughput  = Metric[harness.Result]{"throughput (ops/s)", func(r harness.Result) float64 { return r.Throughput }}
	mRangeTput   = Metric[harness.Result]{"range throughput (scans/s)", func(r harness.Result) float64 { return r.RangeTput }}
	mMaxRetire   = Metric[harness.Result]{"max retireList size (nodes)", func(r harness.Result) float64 { return float64(r.MaxRetire) }}
	mPeakRes     = Metric[harness.Result]{"peak resident nodes", func(r harness.Result) float64 { return float64(r.PeakResident) }}
	mUnreclaimed = Metric[harness.Result]{"total unreclaimed nodes", func(r harness.Result) float64 { return float64(r.Unreclaimed) }}

	sThroughput  = Metric[harness.StoreResult]{"throughput (ops/s)", func(r harness.StoreResult) float64 { return r.Throughput }}
	sStale       = Metric[harness.StoreResult]{"stale value reads", func(r harness.StoreResult) float64 { return float64(r.Stale) }}
	sValueErrs   = Metric[harness.StoreResult]{"value checksum failures", func(r harness.StoreResult) float64 { return float64(r.ValueErrors) }}
	sUnreclaimed = Metric[harness.StoreResult]{"unreclaimed at run end (nodes)", func(r harness.StoreResult) float64 { return float64(r.Unreclaimed) }}
)

// OpLat is LatencyMetric over one op class of a map trial (the scan
// class is timed whenever the mix scans, the others under
// harness.Config.OpLatency).
func OpLat(name string, class harness.OpClass, q float64) Metric[harness.Result] {
	return LatencyMetric(name, func(r harness.Result) *report.Histogram { return r.OpLat[class] }, q)
}

// StoreLat is LatencyMetric over one op class of a store trial.
func StoreLat(name string, class harness.StoreOpClass, q float64) Metric[harness.StoreResult] {
	return LatencyMetric(name, func(r harness.StoreResult) *report.Histogram { return r.OpLat[class] }, q)
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

// topThreads is the sweep's highest thread count, raised to min: the
// single-row figures run there.
func topThreads(c Ctx, min int) int {
	if n := c.Threads[len(c.Threads)-1]; n > min {
		return n
	}
	return min
}

// policiesOr is the figure's own policy set unless the context names
// one.
func (c Ctx) policiesOr(own ...core.Policy) []core.Policy {
	if c.Policies != nil {
		return c.Policies
	}
	return own
}

// threadSweep is the paper's standard plot: cfgBase for every (thread
// count, policy) pair, one series per metric.
func threadSweep(c Ctx, title string, cfgBase harness.Config, policies []core.Policy, metrics []Metric[harness.Result]) ([]report.Series, error) {
	return Grid[harness.Result]{
		Title: title, XLabel: "threads",
		Rows: Labels(c.Threads), Cols: PolicyNames(policies), Metrics: metrics,
		Run: func(r, col int) (harness.Result, error) {
			cfg := cfgBase
			cfg.Policy, cfg.Threads, cfg.Duration, cfg.Seed = policies[col], c.Threads[r], c.Duration, c.Seed
			return harness.Run(cfg)
		},
	}.Series(c.Log)
}

// paperConfig is the structure a paper figure sweeps: dsName at the
// paper's size with its 24K retire threshold, both divided by Ctx.Scale
// unless fixed (the 2K lists are already laptop-scale and their size is
// the point).
func paperConfig(c Ctx, dsName string, paperSize int64, fixed bool, mix workload.Mix) harness.Config {
	cfg := harness.Config{DS: dsName, KeyRange: paperSize, Mix: mix, ReclaimThreshold: 24576}
	if !fixed {
		cfg.KeyRange, cfg.ReclaimThreshold = scaleSize(c, paperSize), scaleThreshold(c, 24576)
	}
	return cfg
}

// sweepFigure is a figure that is one thread sweep of the standard
// policy set over the trial cfg describes.
func sweepFigure(id, what string, cfg func(Ctx) harness.Config, metrics ...Metric[harness.Result]) Figure {
	return Figure{
		ID:   id,
		Desc: what,
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			return threadSweep(c, what, cfg(c), c.policySet(false), metrics)
		},
	}
}

// throughputAndMemory is the Figure 1/2 layout: throughput + max retire
// list across a thread sweep.
func throughputAndMemory(id, what, dsName string, paperSize int64, fixed bool, mix workload.Mix) Figure {
	return sweepFigure(id, what, func(c Ctx) harness.Config {
		return paperConfig(c, dsName, paperSize, fixed, mix)
	}, mThroughput, mMaxRetire)
}

// throughputOnly is the Figure 3 layout.
func throughputOnly(id, what, dsName string, paperSize int64, mix workload.Mix) Figure {
	return sweepFigure(id, what, func(c Ctx) harness.Config {
		return paperConfig(c, dsName, paperSize, false, mix)
	}, mThroughput)
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
			for _, panel := range []struct {
				name string
				mix  workload.Mix
			}{
				{"update-heavy", workload.UpdateHeavy},
				{"read-heavy", workload.ReadHeavy},
			} {
				series, err := threadSweep(c, fmt.Sprintf("%s (%s)", what, panel.name),
					paperConfig(c, dsName, paperSize, fixed, panel.mix), c.policySet(withCrystalline),
					[]Metric[harness.Result]{mThroughput, mPeakRes, mUnreclaimed})
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
			threads := topThreads(c, 2)
			policies := c.policySet(false)
			names := PolicyNames(policies)
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
			return Grid[harness.Result]{
				Title: "Read-path cost", XLabel: "run",
				Rows: []string{"1 thread"}, Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{{"ns per contains (lower is better)", func(r harness.Result) float64 {
					if r.Ops == 0 {
						return 0
					}
					return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
				}}},
				Run: func(_, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:       harness.DSHarrisMichaelList,
						Policy:   policies[col],
						Threads:  1,
						Duration: c.Duration,
						KeyRange: 1024,
						Mix:      workload.Mix{ContainsPct: 100},
						Seed:     c.Seed,
					})
				},
			}.Series(c.Log)
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
			policies := c.policySet(false)
			return Grid[harness.Result]{
				Title: "Delayed thread", XLabel: "run",
				Rows: []string{"stall"}, Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{
					{"unreclaimed nodes at run end", mUnreclaimed.Get},
					mThroughput,
				},
				Run: func(_, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           policies[col],
						Threads:          topThreads(c, 2),
						Duration:         c.Duration,
						KeyRange:         2048,
						ReclaimThreshold: 128,
						StallEvery:       2 * time.Millisecond,
						StallLength:      c.Duration / 4,
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			policies := c.policiesOr(core.HP, core.HPAsym, core.HazardPtrPOP, core.EpochPOP, core.EBR, core.NBR)
			thresholds := []int{128, 512, 2048, 8192}
			return Grid[harness.Result]{
				Title: "Threshold ablation", XLabel: "threshold",
				Rows: Labels(thresholds), Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{mThroughput, mPeakRes},
				Run: func(r, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           policies[col],
						Threads:          topThreads(c, 1),
						Duration:         c.Duration,
						KeyRange:         2048,
						ReclaimThreshold: thresholds[r],
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			policies := c.policiesOr(core.EBR, core.HE, core.IBR, core.HazardEraPOP, core.EpochPOP)
			freqs := []int{16, 64, 256, 1024}
			return Grid[harness.Result]{
				Title: "EpochFreq ablation", XLabel: "epochFreq",
				Rows: Labels(freqs), Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{mThroughput, mPeakRes},
				Run: func(r, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSExternalBST,
						Policy:           policies[col],
						Threads:          topThreads(c, 1),
						Duration:         c.Duration,
						KeyRange:         scaleSize(c, 200_000),
						EpochFreq:        freqs[r],
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 2)
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
	return sweepFigure(id, what, func(c Ctx) harness.Config {
		cfg := paperConfig(c, dsName, paperSize, false, workload.ScanHeavy)
		cfg.RangeSpan = 100
		cfg.ReclaimThreshold = scaleThreshold(c, 2048)
		return cfg
	},
		mThroughput, mRangeTput,
		OpLat("scan p50 (µs)", harness.OpScan, 0.50),
		OpLat("scan p99 (µs)", harness.OpScan, 0.99),
		mMaxRetire, mUnreclaimed,
	)
}

// kvFigure sweeps one structure under the KV-serving mix (70% get /
// 10% put / 15% overwrite / 5% delete) with per-operation latency
// profiling on: the series report KV throughput plus the read and
// write tails (p50/p99 per op class). Overwrites replace values on
// present keys — a retirement per overwrite on the replace-node
// structures — so this is the reclamation pressure a value-serving
// workload adds on top of the paper's key-only churn.
func kvFigure(id, what, dsName string, paperSize int64) Figure {
	return sweepFigure(id, what, func(c Ctx) harness.Config {
		cfg := paperConfig(c, dsName, paperSize, false, workload.KVStore)
		cfg.OpLatency = true
		return cfg
	},
		mThroughput,
		OpLat("get p50 (µs)", harness.OpGet, 0.50),
		OpLat("get p99 (µs)", harness.OpGet, 0.99),
		OpLat("put p99 (µs)", harness.OpPut, 0.99),
		OpLat("overwrite p99 (µs)", harness.OpOverwrite, 0.99),
		OpLat("delete p99 (µs)", harness.OpDelete, 0.99),
		mMaxRetire,
	)
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
			policies := c.policySet(false)
			return Grid[harness.StoreResult]{
				Title: "Store serve (skl ×8 shards, zipf)", XLabel: "threads",
				Rows: Labels(c.Threads), Cols: PolicyNames(policies),
				Metrics: []Metric[harness.StoreResult]{
					sThroughput,
					{"served keys/s", func(r harness.StoreResult) float64 { return r.KeyTput }},
					StoreLat("get p50 (µs)", harness.SOpGet, 0.50),
					StoreLat("get p99 (µs)", harness.SOpGet, 0.99),
					StoreLat("mget p99 (µs)", harness.SOpMGet, 0.99),
					StoreLat("scan p99 (µs)", harness.SOpScan, 0.99),
					StoreLat("put p99 (µs)", harness.SOpPut, 0.99),
					sStale, sValueErrs, sUnreclaimed,
				},
				Run: func(r, col int) (harness.StoreResult, error) {
					return harness.RunStore(harness.StoreConfig{
						Policy:           policies[col],
						Threads:          c.Threads[r],
						Duration:         c.Duration,
						Keys:             scaleSize(c, 4_000_000),
						Shards:           8,
						Dist:             workload.Zipf,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			type variant struct {
				p core.Policy
				g int
			}
			var vs []variant
			var names []string
			for _, p := range c.policiesOr(core.EpochPOP, core.HazardPtrPOP) {
				for _, g := range []int{1, shards / 4, shards} {
					vs = append(vs, variant{p, g})
					names = append(names, fmt.Sprintf("%v g=%d", p, g))
				}
			}
			return Grid[harness.StoreResult]{
				Title:  fmt.Sprintf("Ping fan-out (skl ×%d shards, zipf)", shards),
				XLabel: "threads",
				Rows:   Labels(threads), Cols: names,
				Metrics: []Metric[harness.StoreResult]{
					sThroughput,
					StoreLat("get p99 (µs)", harness.SOpGet, 0.99),
					StoreLat("put p99 (µs)", harness.SOpPut, 0.99),
					{"reclaim pings per pass", func(r harness.StoreResult) float64 { return r.ReclaimDetail.PingsPerPass }},
					{"reclaim threads scanned per pass", func(r harness.StoreResult) float64 { return r.ReclaimDetail.ScannedPerPass }},
					sUnreclaimed,
				},
				Run: func(r, col int) (harness.StoreResult, error) {
					return harness.RunStore(harness.StoreConfig{
						Policy:   vs[col].p,
						Threads:  threads[r],
						Duration: c.Duration,
						Keys:     scaleSize(c, 4_000_000),
						Shards:   shards,
						Groups:   vs[col].g,
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
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 1)
			policies := c.policySet(false)
			ws := workload.YCSBWorkloads()
			rows := make([]string, len(ws))
			for i, w := range ws {
				rows[i] = w.Name
			}
			return Grid[harness.StoreResult]{
				Title:  fmt.Sprintf("YCSB A–F (skl ×8 shards, %d threads)", threads),
				XLabel: "workload",
				Rows:   rows, Cols: PolicyNames(policies),
				Metrics: []Metric[harness.StoreResult]{
					sThroughput,
					StoreLat("get p99 (µs)", harness.SOpGet, 0.99),
					StoreLat("put p99 (µs)", harness.SOpPut, 0.99),
					StoreLat("rmw p99 (µs)", harness.SOpRMW, 0.99),
					StoreLat("scan p99 (µs)", harness.SOpScan, 0.99),
					sValueErrs, sUnreclaimed,
				},
				Run: func(r, col int) (harness.StoreResult, error) {
					return harness.RunStore(harness.StoreConfig{
						Policy:           policies[col],
						Threads:          threads,
						Duration:         c.Duration,
						Keys:             scaleSize(c, 4_000_000),
						Shards:           8,
						Mix:              ws[r].Mix,
						Dist:             ws[r].Dist,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 64)
			w, err := workload.ParseYCSB("B")
			if err != nil {
				return nil, err
			}
			vs := []struct {
				backing string
				valLen  int
				label   string
			}{
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
			return Grid[harness.StoreResult]{
				Title:  fmt.Sprintf("Hot path (YCSB B, %d threads, 8 shards)", threads),
				XLabel: "policy",
				Rows:   PolicyNames(policies), Cols: names,
				Metrics: []Metric[harness.StoreResult]{
					sThroughput,
					StoreLat("get p50 (µs)", harness.SOpGet, 0.50),
					StoreLat("get p99 (µs)", harness.SOpGet, 0.99),
					StoreLat("put p99 (µs)", harness.SOpPut, 0.99),
					{"allocs/op", func(r harness.StoreResult) float64 { return r.AllocsPerOp }},
					{"alloc bytes/op", func(r harness.StoreResult) float64 { return r.AllocBytesPerOp }},
					sStale, sValueErrs,
				},
				Run: func(r, col int) (harness.StoreResult, error) {
					return harness.RunStore(harness.StoreConfig{
						Policy:           policies[r],
						Threads:          threads,
						Duration:         c.Duration,
						Keys:             scaleSize(c, 4_000_000),
						Shards:           8,
						Backing:          vs[col].backing,
						Mix:              w.Mix,
						Dist:             w.Dist,
						ValueMin:         vs[col].valLen,
						ValueMax:         vs[col].valLen,
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
		},
	}
}

// ServeMetrics is the canonical serve-trial metric set: throughput,
// client-observed get/set tails, the admission-queue wait distribution,
// the coalescing counters, and the correctness columns (checksum
// failures and leaked leases, both of which must be zero).
func ServeMetrics() []Metric[harness.ServeResult] {
	type R = harness.ServeResult
	getH := func(r R) *report.Histogram { return r.GetLat }
	setH := func(r R) *report.Histogram { return r.SetLat }
	admH := func(r R) *report.Histogram { return r.AdmWait }
	return []Metric[R]{
		{"throughput (ops/s)", func(r R) float64 { return r.Throughput }},
		LatencyMetric("get latency p50 (µs)", getH, 0.50),
		LatencyMetric("get latency p99 (µs)", getH, 0.99),
		LatencyMetric("get latency max (µs)", getH, 1),
		LatencyMetric("set latency p50 (µs)", setH, 0.50),
		LatencyMetric("set latency p99 (µs)", setH, 0.99),
		LatencyMetric("admission wait p50 (µs)", admH, 0.50),
		LatencyMetric("admission wait p99 (µs)", admH, 0.99),
		{"admission waits (queued bursts)", func(r R) float64 { return float64(r.Server.AdmissionWaits) }},
		{"coalesced gets", func(r R) float64 { return float64(r.Server.CoalescedGets) }},
		{"coalesced batches", func(r R) float64 { return float64(r.Server.CoalescedBatches) }},
		{"value checksum failures", func(r R) float64 { return float64(r.ValueErrors) }},
		{"leaked leases after shutdown", func(r R) float64 { return float64(r.Lifecycle.Leased) }},
	}
}

// serveFigure sweeps the wire-protocol serving front: a live popserve
// instance with 4 admission slots, swept from slot-parity up to 8×
// overcommitted connections under a zipf get/set mix. Client-observed
// tails include protocol framing, burst admission queueing, and the
// per-shard get combiner — the end-to-end serving cost of each
// reclamation policy, not just its in-process op latency.
func serveFigure() Figure {
	return Figure{
		ID:   "serve",
		Desc: "Serving front: live TCP memcached-text server, conns ≫ slots; client tails, admission waits, coalescing",
		Run: func(c Ctx) ([]report.Series, error) {
			c = c.withDefaults()
			const slots = 4
			conns := []int{slots, 4 * slots, 8 * slots}
			policies := c.policySet(false)
			return Grid[harness.ServeResult]{
				Title:  fmt.Sprintf("Serve (skl ×4 shards, %d slots, zipf)", slots),
				XLabel: "conns",
				Rows:   Labels(conns), Cols: PolicyNames(policies),
				Metrics: ServeMetrics(),
				Run: func(r, col int) (harness.ServeResult, error) {
					return harness.RunServe(harness.ServeConfig{
						Policy:   policies[col],
						Slots:    slots,
						Conns:    conns[r],
						Duration: c.Duration,
						Keys:     scaleSize(c, 1_000_000),
						Shards:   4,
						Dist:     workload.Zipf,
						Seed:     c.Seed,
					})
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 2)
			policies := c.policiesOr(core.EBR, core.NBR, core.HazardPtrPOP, core.EpochPOP)
			pcts := []int{0, 5, 15, 30, 50}
			return Grid[harness.Result]{
				Title:  fmt.Sprintf("NBR overwrite ablation (HML, %d threads)", threads),
				XLabel: "overwritePct",
				Rows:   Labels(pcts), Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{
					mThroughput,
					OpLat("overwrite p99 (µs)", harness.OpOverwrite, 0.99),
					{"NBR restarts", func(r harness.Result) float64 { return float64(r.Reclaim.Restarts) }},
					{"publish-handler runs", func(r harness.Result) float64 { return float64(r.Reclaim.Publishes) }},
				},
				Run: func(r, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSHarrisMichaelList,
						Policy:           policies[col],
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         2048,
						Mix:              workload.Mix{ContainsPct: 100 - pcts[r], OverwritePct: pcts[r]},
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 2048),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 2)
			policies := c.policySet(false)
			leases := []uint64{0, 20000, 5000, 1000}
			rows := Labels(leases)
			rows[0] = "none"
			return Grid[harness.Result]{
				Title:  fmt.Sprintf("Worker churn (SKL kv, %d threads)", threads),
				XLabel: "opsPerLease",
				Rows:   rows, Cols: PolicyNames(policies),
				Metrics: []Metric[harness.Result]{
					mThroughput,
					OpLat("get latency p99 (µs)", harness.OpGet, 0.99),
					OpLat("overwrite latency p99 (µs)", harness.OpOverwrite, 0.99),
					{"unreclaimed at run end (nodes)", mUnreclaimed.Get},
					{"thread releases", func(r harness.Result) float64 { return float64(r.Lifecycle.Releases) }},
					{"orphan nodes adopted", func(r harness.Result) float64 { return float64(r.Lifecycle.OrphansAdopted) }},
				},
				Run: func(r, col int) (harness.Result, error) {
					return harness.Run(harness.Config{
						DS:               harness.DSSkipList,
						Policy:           policies[col],
						Threads:          threads,
						Duration:         c.Duration,
						KeyRange:         scaleSize(c, 1_000_000),
						Mix:              workload.KVStore,
						Churn:            workload.Churn{AfterOps: leases[r]},
						OpLatency:        true,
						ReclaimThreshold: scaleThreshold(c, 24576),
						Seed:             c.Seed,
					})
				},
			}.Series(c.Log)
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
			threads := topThreads(c, 4)
			policies := c.policiesOr(core.EBR, core.NBR, core.HazardPtrPOP, core.EpochPOP)
			w, err := workload.ParseYCSB("A")
			if err != nil {
				return nil, err
			}
			every := c.Duration / 24
			if every < time.Millisecond {
				every = time.Millisecond
			}
			names := PolicyNames(policies)
			tls := make([]*telemetry.Timeline, len(policies))
			for i, p := range policies {
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
