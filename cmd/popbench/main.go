// Command popbench regenerates the paper's figures and runs ad-hoc
// sweeps. Each figure id maps to one experiment from the evaluation
// section (-list prints the index; internal/figures defines it); the
// output is the same series the paper plots, as an aligned table
// (default), TSV (-tsv) or CSV (-csv).
//
// With -ds, popbench instead runs a direct sweep of one data structure
// across policies and thread counts; -rangepct carves range queries out
// of the mix's contains share (requires a range-capable structure: -ds
// skl or -ds abt) and -rangespan sets the scan width. For range-capable
// structures -rangepct defaults to 10 (pass -rangepct 0 to disable);
// whenever the running mix contains scans, the sweep reports per-scan
// latency quantiles (p50/p90/p99/max, from an HDR histogram merged
// across workers) for every policy alongside throughput and memory.
//
// Direct sweeps run with per-operation latency profiling on: every
// policy's table includes p50/p99 per op class (get, put, overwrite,
// delete), plus value-checksum failures (which must be 0 — a nonzero
// count means a stale value was served). The kv mix (70% get / 10% put /
// 15% overwrite / 5% delete) is the KV-serving workload; its overwrite
// share retires a node per hit on the replace-node structures.
//
// With -store, popbench sweeps the KV-serving front (internal/store)
// instead: shard counts × policies × multi-get batch sizes under the
// serving mix (get/put/mget/scan/delete over string keys), reporting
// throughput, per-class latency tails and the stale-value-read count —
// how often a value read lost to an overwrite's reclamation — per
// policy. -dist zipf switches key popularity to scrambled Zipfian
// (s=0.99) in both store sweeps and -ds direct sweeps. -valsize picks
// the payload-size distribution (fixed:N, uniform:MIN,MAX or
// mixed:PCT,SMALL,LARGE); payloads of at most 7 bytes inline-encode
// into the map word instead of taking an arena slot, and every store
// and -ds sweep reports allocs/op and alloc bytes/op (whole-process
// MemStats deltas over the measured phase) so the allocation cost of a
// configuration is a first-class column.
//
// With -ycsb A..F, store and serve sweeps run the named YCSB core
// workload instead of the default mix: A (50/50 read/update, zipf),
// B (95/5, zipf), C (read-only, zipf), D (95/5 read/insert, latest),
// E (95/5 scan/insert, zipf), F (50/50 read/rmw, zipf). The serve path
// supports A–D (the wire protocol has no scan or rmw command); E needs
// an ordered -backing.
//
// With -trace FILE, the store path replays a recorded trace instead of
// drawing from a synthetic mix. Traces are text lines of
// `op,key,size,offset_us` (op: get, put/set, delete/del, scan, rmw;
// `#` comments and blank lines ignored). The trace drains exactly once
// per trial across all workers; -tracepaced honors the recorded
// offsets as an open-loop arrival schedule instead of replaying
// flat-out.
//
// With -chaos, sweeps run under the standard fault-injector bundle
// (internal/chaos): stalled readers holding protected operations
// across reclamation windows, forced-GC pressure, thread-lease churn,
// and a shard-hotspot flipper — with injector activity reported as
// extra columns. Chaos perturbs schedules only; every injector write
// is checksum-valid, so the value-checksum column must stay zero.
//
// With -churn N, sweeps run in the elastic mode: every worker releases
// its thread handle after N operations (donating its unreclaimed
// retire list to the domain's orphan queue) and respawns as a fresh
// goroutine re-leasing a slot. Churned sweeps add the lifecycle
// columns — thread releases and orphan nodes adopted — so reclamation
// tails under thread turnover are explainable; the `churn` figure runs
// the canonical turnover sweep.
//
// Examples:
//
//	popbench -list
//	popbench -figure fig2a -duration 2s -threads 1,2,4,8,16
//	popbench -figure all -scale 128 -duration 500ms -tsv > results.tsv
//	popbench -figure fig4 -policies NR,EBR,NBR,HazardPtrPOP,EpochPOP
//	popbench -ds skl -rangepct 10 -rangespan 200
//	popbench -ds abt -csv > abt-scan-latency.csv
//	popbench -ds abt -mix scan-heavy -keyrange 100000
//	popbench -ds skl -mix kv -duration 1s -csv > skl-kv.csv
//	popbench -ds hmht -mix kv -keyrange 1000000 -dist zipf
//	popbench -ds skl -mix kv -churn 5000
//	popbench -figure churn -duration 1s
//	popbench -store -shards 1,4,16 -batch 8,64 -dist zipf
//	popbench -store -churn 2000 -shards 8
//	popbench -store -backing hmht -keyrange 1000000 -csv > store.csv
//	popbench -store -valsize mixed:80,6,256 -ycsb B
//	popbench -ycsb B -threads 8
//	popbench -ycsb D -serve -conns 32
//	popbench -trace ops.trace -tracepaced
//	popbench -ycsb A -chaos
//	popbench -figure ycsb -duration 1s
//
// The -scale flag divides the paper's structure sizes (defaults to 64 so
// a laptop run finishes); -scale 1 runs the full-size structures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/figures"
	"pop/internal/harness"
	"pop/internal/report"
	"pop/internal/store"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

func main() {
	var (
		figureID = flag.String("figure", "", "figure id to run (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available figures and exit")
		duration = flag.Duration("duration", 300*time.Millisecond, "execution time per trial")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts to sweep")
		scale    = flag.Int64("scale", 64, "divide the paper's structure sizes by this factor")
		seed     = flag.Uint64("seed", 42, "trial seed")
		policies = flag.String("policies", "", "comma-separated policy subset (default: the paper's set)")
		tsv      = flag.Bool("tsv", false, "emit TSV instead of aligned tables")
		csv      = flag.Bool("csv", false, "emit CSV (full precision) instead of aligned tables")
		quiet    = flag.Bool("quiet", false, "suppress progress messages")

		dsName    = flag.String("ds", "", "direct sweep of one data structure (hml, ll, hmht, dgt, abt, skl) instead of a figure")
		mixName   = flag.String("mix", "read-heavy", "direct sweep mix: read-heavy, update-heavy, scan-heavy or kv")
		rangePct  = flag.Int("rangepct", -1, "percent of operations that are range queries, taken from the mix's contains share (-1 = auto: 10 for range-capable structures, 0 otherwise)")
		rangeSpan = flag.Int64("rangespan", workload.DefaultRangeSpan, "keys per range query")
		keyRange  = flag.Int64("keyrange", 16384, "direct sweep / store key population")
		distName  = flag.String("dist", "uniform", "key-popularity distribution: uniform, zipf (s=0.99) or latest (popularity follows the insert frontier)")
		churnOps  = flag.Uint64("churn", 0, "elastic mode: operations per worker incarnation before it releases its thread handle and respawns (0 = no churn); applies to -ds and -store sweeps")
		rthresh   = flag.Int("rthresh", 0, "retire-list length that triggers a reclamation pass (0 = the paper's 24576); lower it to observe per-pass ping/scan fan-out in short runs; applies to -ds and -store sweeps")

		ycsbName   = flag.String("ycsb", "", "YCSB core workload (A..F): run the store sweep (or, with -serve, the serving front) under the named mix and key distribution")
		traceFile  = flag.String("trace", "", "replay a recorded op trace (op,key,size,offset_us lines) through the store instead of a synthetic mix")
		tracePaced = flag.Bool("tracepaced", false, "honor the trace's recorded offsets as an open-loop arrival schedule (default: replay flat-out)")
		chaosOn    = flag.Bool("chaos", false, "run the standard fault-injector bundle (stalled readers, GC pressure, lease churn, shard hotspot) alongside store and serve sweeps")
		chaosFrom  = flag.Duration("chaosstart", 0, "with -chaos on -store: delay injector start this long into the measured run (a chaos burst instead of whole-run chaos)")
		chaosTo    = flag.Duration("chaosstop", 0, "with -chaos on -store: stop injectors this long into the run (0 = at run end)")
		sampleDur  = flag.Duration("sample", 0, "store sweep: record an interval-sampled telemetry timeline per cell at this resolution and print it after the tables (0 = off); with -json the samples embed in each record")

		storeMode = flag.Bool("store", false, "store sweep: the sharded string-key KV front across shards × policies × batch sizes")
		backing   = flag.String("backing", "skl", "store backing structure (skl, hmht, hml, abt, ll, dgt)")
		valSize   = flag.String("valsize", "", "store sweep payload-size distribution: fixed:N, uniform:MIN,MAX or mixed:PCT,SMALL,LARGE (PCT%% of puts are SMALL bytes, the rest LARGE); sizes <= 7 take the store's inline-value path")
		shardsCSV = flag.String("shards", "8", "store sweep: comma-separated shard counts")
		batchCSV  = flag.String("batch", "16", "store sweep: comma-separated multi-get/multi-put batch sizes")
		groupsCSV = flag.String("groups", "1", "store sweep: comma-separated reclamation-domain member counts the shards split across (powers of two, capped at the shard count)")
		mputPct   = flag.Int("mputpct", 0, "store sweep: percent of ops that are batched multi-puts (PutBatch), carved from the mix's put share")
		jsonOut   = flag.String("json", "", "also append one JSON record per sweep cell (JSON lines) to this file — -store, -ds and -serve sweeps all emit (CI's BENCH_store.json / BENCH_ds.json / BENCH_serve.json trajectories)")

		serveMode = flag.Bool("serve", false, "serve sweep: live TCP memcached-text server across connection counts × policies")
		connsCSV  = flag.String("conns", "8,32", "serve sweep: comma-separated client connection counts")
		slots     = flag.Int("slots", 8, "serve sweep: admission slots (connections executing at once)")
		openRate  = flag.Float64("openrate", 0, "serve sweep: open-loop total ops/s target (0 = closed loop)")
		getPct    = flag.Int("getpct", 90, "serve sweep: get share of the op mix (rest are sets)")
	)
	flag.Parse()

	render := func(s *report.Series) error { return s.WriteTable(os.Stdout) }
	switch {
	case *csv:
		render = func(s *report.Series) error { return s.WriteCSV(os.Stdout) }
	case *tsv:
		render = func(s *report.Series) error { return s.WriteTSV(os.Stdout) }
	}

	if *list {
		for _, f := range figures.All() {
			fmt.Printf("%-18s %s\n", f.ID, f.Desc)
		}
		return
	}
	dist, err := workload.ParseDist(*distName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		os.Exit(2)
	}
	if *ycsbName != "" && *dsName != "" {
		fmt.Fprintln(os.Stderr, "popbench: -ycsb applies to the -store and -serve paths, not -ds")
		os.Exit(2)
	}
	if *traceFile != "" && (*serveMode || *dsName != "") {
		fmt.Fprintln(os.Stderr, "popbench: -trace replays through the store path only")
		os.Exit(2)
	}
	if *traceFile != "" && *ycsbName != "" {
		fmt.Fprintln(os.Stderr, "popbench: -trace and -ycsb are mutually exclusive (a trace is the workload)")
		os.Exit(2)
	}
	var trace []workload.TraceOp
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(2)
		}
		trace, err = workload.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(2)
		}
	}
	// -ycsb and -trace imply the store sweep unless -serve picked the
	// wire-protocol front.
	if (*ycsbName != "" || *traceFile != "") && !*serveMode {
		*storeMode = true
	}
	var chaosCfg chaos.Config
	if *chaosOn {
		if !*storeMode && !*serveMode {
			fmt.Fprintln(os.Stderr, "popbench: -chaos applies to the -store and -serve paths")
			os.Exit(2)
		}
		chaosCfg = chaos.Default()
	}
	if (*chaosFrom > 0 || *chaosTo > 0) && !*storeMode {
		fmt.Fprintln(os.Stderr, "popbench: -chaosstart/-chaosstop window the -store path's injectors")
		os.Exit(2)
	}
	if *sampleDur > 0 && !*storeMode {
		fmt.Fprintln(os.Stderr, "popbench: -sample applies to the -store path (-figure timeline samples the canonical run)")
		os.Exit(2)
	}
	if *valSize != "" && !*storeMode {
		fmt.Fprintln(os.Stderr, "popbench: -valsize applies to the -store path")
		os.Exit(2)
	}
	valMin, valMax, valSmallPct, err := parseValSize(*valSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		os.Exit(2)
	}
	if *serveMode {
		if err := serveSweep(serveSweepOpts{
			backing: *backing, conns: *connsCSV, slots: *slots,
			openRate: *openRate, getPct: *getPct, keys: *keyRange, dist: dist,
			duration: *duration, seed: *seed, policies: *policies,
			ycsb: *ycsbName, chaos: chaosCfg, jsonPath: *jsonOut,
			render: render, quiet: *quiet,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeMode {
		if err := storeSweep(storeSweepOpts{
			backing: *backing, shards: *shardsCSV, batches: *batchCSV,
			groups: *groupsCSV, mputPct: *mputPct, jsonPath: *jsonOut,
			keys: *keyRange, dist: dist, duration: *duration, threads: *threads,
			seed: *seed, policies: *policies, render: render, quiet: *quiet,
			churn: workload.Churn{AfterOps: *churnOps}, rthresh: *rthresh,
			ycsb: *ycsbName, chaos: chaosCfg,
			chaosStart: *chaosFrom, chaosStop: *chaosTo, sample: *sampleDur,
			trace: trace, traceName: *traceFile, tracePaced: *tracePaced,
			valSpec: *valSize, valMin: valMin, valMax: valMax, valSmallPct: valSmallPct,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *dsName != "" {
		if err := directSweep(sweepOpts{
			ds: *dsName, mix: *mixName, rangePct: *rangePct, rangeSpan: *rangeSpan,
			keyRange: *keyRange, dist: dist, duration: *duration, threads: *threads,
			seed: *seed, policies: *policies, render: render, quiet: *quiet,
			churn: workload.Churn{AfterOps: *churnOps}, rthresh: *rthresh,
			jsonPath: *jsonOut,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *figureID == "" {
		fmt.Fprintln(os.Stderr, "popbench: -figure or -ds required (use -list to see figure ids)")
		os.Exit(2)
	}

	ctx := figures.Ctx{
		Duration: *duration,
		Scale:    *scale,
		Seed:     *seed,
	}
	if !*quiet {
		ctx.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if ctx.Threads, err = parseInts(*threads); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: bad -threads: %v\n", err)
		os.Exit(2)
	}
	if *policies != "" {
		for _, name := range strings.Split(*policies, ",") {
			p, err := core.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
				os.Exit(2)
			}
			ctx.Policies = append(ctx.Policies, p)
		}
	}

	var toRun []figures.Figure
	if *figureID == "all" {
		toRun = figures.All()
	} else {
		for _, id := range strings.Split(*figureID, ",") {
			f, ok := figures.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "popbench: unknown figure %q (use -list)\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, f)
		}
	}

	for _, f := range toRun {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s\n", f.ID, f.Desc)
		}
		series, err := f.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %s failed: %v\n", f.ID, err)
			os.Exit(1)
		}
		for i := range series {
			if err := render(&series[i]); err != nil {
				fmt.Fprintf(os.Stderr, "popbench: write: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// sweepOpts carries the -ds direct-sweep flag values.
type sweepOpts struct {
	ds, mix   string
	rangePct  int // -1 = auto
	rangeSpan int64
	keyRange  int64
	dist      workload.Dist
	churn     workload.Churn
	rthresh   int
	duration  time.Duration
	threads   string
	seed      uint64
	policies  string
	jsonPath  string // JSON-lines sink ("" = none)
	render    func(*report.Series) error
	quiet     bool
}

// storeSweepOpts carries the -store sweep flag values.
type storeSweepOpts struct {
	backing     string
	shards      string // csv shard counts
	batches     string // csv batch sizes
	groups      string // csv domain-group member counts
	mputPct     int    // PutBatch share carved from the put share
	jsonPath    string // JSON records sink ("" = none)
	keys        int64
	dist        workload.Dist
	churn       workload.Churn
	rthresh     int    // per-slot reclamation threshold (0 = paper default)
	ycsb        string // YCSB workload name ("" = serve mix)
	trace       []workload.TraceOp
	traceName   string
	tracePaced  bool
	chaos       chaos.Config
	chaosStart  time.Duration // burst window start ("" = immediate)
	chaosStop   time.Duration // burst window end (0 = run end)
	sample      time.Duration // telemetry sampling interval (0 = off)
	valSpec     string        // the raw -valsize spec (title/labels; "" = defaults)
	valMin      int           // payload size bounds (0 = harness defaults)
	valMax      int
	valSmallPct int // bimodal small-share percent (0 = uniform draw)
	duration    time.Duration
	threads     string
	seed        uint64
	policies    string
	render      func(*report.Series) error
	quiet       bool
}

// serveSweepOpts carries the -serve sweep flag values.
type serveSweepOpts struct {
	backing  string
	conns    string // csv connection counts
	slots    int
	openRate float64
	getPct   int
	keys     int64
	dist     workload.Dist
	ycsb     string // YCSB workload name ("" = plain get/set mix)
	chaos    chaos.Config
	jsonPath string // JSON-lines sink ("" = none)
	duration time.Duration
	seed     uint64
	policies string
	render   func(*report.Series) error
	quiet    bool
}

// serveSweep runs the live TCP serving front across connection counts ×
// policies: one row per connection count, one column per policy, one
// table per metric. Rows where conns exceed -slots are the admission
// story — clients queue for thread leases instead of being refused, and
// the wait shows up in the client-observed tails and the admission-wait
// distribution.
func serveSweep(o serveSweepOpts) error {
	connList, err := parseInts(o.conns)
	if err != nil {
		return fmt.Errorf("bad -conns: %w", err)
	}
	ps := core.Policies()
	if o.policies != "" {
		ps = ps[:0]
		for _, name := range strings.Split(o.policies, ",") {
			p, err := core.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
	}
	label := ""
	if o.ycsb != "" {
		// The wire protocol speaks get/set/delete: A–D map onto it
		// (their mixes are reads plus writes); E scans and F needs
		// read-modify-write, which have no wire command.
		w, err := workload.ParseYCSB(o.ycsb)
		if err != nil {
			return err
		}
		if w.Mix.ScanPct > 0 || w.Mix.RMWPct > 0 {
			return fmt.Errorf("YCSB %s needs scan/rmw; the serving front supports A-D", w.Name)
		}
		o.getPct = w.Mix.GetPct
		o.dist = w.Dist
		label = fmt.Sprintf("YCSB %s, ", w.Name)
	}
	loop := "closed loop"
	if o.openRate > 0 {
		loop = fmt.Sprintf("open loop %.0f op/s", o.openRate)
	}
	if o.chaos.Enabled() {
		loop += ", chaos"
	}
	title := fmt.Sprintf("serve %s (%s%d slots, %d keys, %v dist, %d%% gets, %s)",
		o.backing, label, o.slots, o.keys, o.dist, o.getPct, loop)
	ctx := figures.Ctx{
		Duration: o.duration,
		Seed:     o.seed,
		Log:      func(string, ...any) {},
	}
	if !o.quiet {
		ctx.Log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	metrics := figures.ServeMetrics()
	if o.chaos.Enabled() {
		metrics = append(metrics,
			figures.ServeMetric{Name: "chaos injector ops", Get: func(r harness.ServeResult) float64 { return float64(r.Chaos.Ops) }},
			figures.ServeMetric{Name: "chaos stall windows", Get: func(r harness.ServeResult) float64 { return float64(r.Chaos.Stalls) }},
			figures.ServeMetric{Name: "chaos lease cycles", Get: func(r harness.ServeResult) float64 { return float64(r.Chaos.Leases) }},
		)
	}
	series, err := figures.SweepServeConns(ctx, title, harness.ServeConfig{
		Slots:    o.slots,
		Keys:     o.keys,
		Backing:  o.backing,
		GetPct:   o.getPct,
		OpenRate: o.openRate,
		Dist:     o.dist,
		Chaos:    o.chaos,
	}, connList, ps, metrics)
	if err != nil {
		return err
	}
	for i := range series {
		if err := o.render(&series[i]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if o.jsonPath != "" {
		names := make([]string, len(metrics))
		for i, m := range metrics {
			names[i] = m.Name
		}
		if err := appendJSONLines(o.jsonPath, seriesRecords("serve", o.backing, names, series)); err != nil {
			return fmt.Errorf("write %s: %w", o.jsonPath, err)
		}
	}
	return nil
}

// storeSweep runs the KV front across shards × policies × batch sizes
// at the highest requested thread count: one row per (shards, batch)
// combination, one column per policy, one table per metric. This is
// the capacity-planning view of the store — how shard count and batch
// width trade against each policy's serving tails.
func storeSweep(o storeSweepOpts) error {
	shardList, err := parseInts(o.shards)
	if err != nil {
		return fmt.Errorf("bad -shards: %w", err)
	}
	batchList, err := parseInts(o.batches)
	if err != nil {
		return fmt.Errorf("bad -batch: %w", err)
	}
	groupList, err := parseInts(o.groups)
	if err != nil {
		return fmt.Errorf("bad -groups: %w", err)
	}
	if o.groups == "" {
		groupList = []int{1}
	}
	threadCounts, err := parseInts(o.threads)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	threads := threadCounts[len(threadCounts)-1]
	ps := core.Policies()
	if o.policies != "" {
		ps = ps[:0]
		for _, name := range strings.Split(o.policies, ",") {
			p, err := core.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}

	metrics := []figures.StoreMetric{
		{Name: "throughput (ops/s)", Get: func(r harness.StoreResult) float64 { return r.Throughput }},
		{Name: "served keys/s", Get: func(r harness.StoreResult) float64 { return r.KeyTput }},
		figures.StoreOpLatencyMetric("get latency p50 (µs)", harness.SOpGet, 0.50),
		figures.StoreOpLatencyMetric("get latency p99 (µs)", harness.SOpGet, 0.99),
		figures.StoreOpLatencyMetric("mget latency p99 (µs)", harness.SOpMGet, 0.99),
		figures.StoreOpLatencyMetric("put latency p99 (µs)", harness.SOpPut, 0.99),
		{Name: "stale value reads", Get: func(r harness.StoreResult) float64 { return float64(r.Stale) }},
		{Name: "value checksum failures", Get: func(r harness.StoreResult) float64 { return float64(r.ValueErrors) }},
		// Allocation accounting: whole-process heap-allocation rate over
		// the measured phase — the sweep-level view of the hot-path
		// memory diet (inline values and pooled nodes cost zero here).
		{Name: "allocs/op", Get: func(r harness.StoreResult) float64 { return r.AllocsPerOp }},
		{Name: "alloc bytes/op", Get: func(r harness.StoreResult) float64 { return r.AllocBytesPerOp }},
		{Name: "unreclaimed at run end (nodes)", Get: func(r harness.StoreResult) float64 { return float64(r.Unreclaimed) }},
		{Name: "leaked after flush (nodes)", Get: func(r harness.StoreResult) float64 { return float64(r.LeakedAfter) }},
		// The fan-out view (satellite of the domain-group work): how many
		// thread-list entries a reclamation pass walks, and how many pings
		// it sends — the quantity grouping divides by the member count.
		{Name: "reclaim pings per pass", Get: func(r harness.StoreResult) float64 { return r.ReclaimDetail.PingsPerPass }},
		{Name: "reclaim threads scanned per pass", Get: func(r harness.StoreResult) float64 { return r.ReclaimDetail.ScannedPerPass }},
	}
	if o.churn.Enabled() {
		// Elastic sweeps report the turnover they generated, so tails
		// and garbage are explainable per lease rate.
		metrics = append(metrics,
			figures.StoreMetric{Name: "thread releases", Get: func(r harness.StoreResult) float64 { return float64(r.Lifecycle.Releases) }},
			figures.StoreMetric{Name: "orphan nodes adopted", Get: func(r harness.StoreResult) float64 { return float64(r.Lifecycle.OrphansAdopted) }},
		)
	}
	// Ask the store layer itself whether the backing scans (a throwaway
	// probe, the harness.RangeCapable pattern) — this also surfaces an
	// unknown -backing as an error before the sweep starts.
	probe, err := store.New(core.NewDomainGroup(core.NR, 1, 1, nil), store.Config{Shards: 1, Backing: o.backing})
	if err != nil {
		return err
	}
	traceMode := len(o.trace) > 0
	mix := workload.StoreServe
	mixLabel := "serve mix"
	if o.ycsb != "" {
		w, err := workload.ParseYCSB(o.ycsb)
		if err != nil {
			return err
		}
		mix = w.Mix
		o.dist = w.Dist
		mixLabel = "YCSB " + w.Name
	}
	if traceMode {
		mixLabel = fmt.Sprintf("trace %s, %d ops", o.traceName, len(o.trace))
		if o.tracePaced {
			mixLabel += ", paced"
		}
	}
	switch {
	case probe.Ordered():
		metrics = append(metrics, figures.StoreOpLatencyMetric("scan latency p99 (µs)", harness.SOpScan, 0.99))
	case o.ycsb != "" && mix.ScanPct > 0:
		// A scanning YCSB workload on an unordered backing would not be
		// that workload anymore; scan traces are rejected by the harness.
		return fmt.Errorf("YCSB %s scans but backing %q is unordered (pick skl, abt, hml, ll or dgt)", o.ycsb, o.backing)
	default:
		// Unordered backings cannot scan: fold the scan share into gets.
		mix.GetPct += mix.ScanPct
		mix.ScanPct = 0
	}
	if o.mputPct > 0 {
		// Carve the batched-put share out of puts so the overall write
		// rate stays the control variable.
		if traceMode {
			return fmt.Errorf("-mputpct does not apply to trace replay (the trace is the workload)")
		}
		if o.mputPct > mix.PutPct {
			return fmt.Errorf("-mputpct %d exceeds the mix's put share (%d%%)", o.mputPct, mix.PutPct)
		}
		mix.PutPct -= o.mputPct
		mix.MPutPct += o.mputPct
	}
	if mix.RMWPct > 0 || traceMode {
		metrics = append(metrics, figures.StoreOpLatencyMetric("rmw latency p99 (µs)", harness.SOpRMW, 0.99))
	}
	if mix.MPutPct > 0 {
		metrics = append(metrics, figures.StoreOpLatencyMetric("mput latency p99 (µs)", harness.SOpMPut, 0.99))
	}
	if o.chaos.Enabled() {
		metrics = append(metrics,
			figures.StoreMetric{Name: "chaos injector ops", Get: func(r harness.StoreResult) float64 { return float64(r.Chaos.Ops) }},
			figures.StoreMetric{Name: "chaos stall windows", Get: func(r harness.StoreResult) float64 { return float64(r.Chaos.Stalls) }},
			figures.StoreMetric{Name: "chaos lease cycles", Get: func(r harness.StoreResult) float64 { return float64(r.Chaos.Leases) }},
		)
	}

	title := fmt.Sprintf("store %s (%s, %d keys, %v dist, %d threads)", o.backing, mixLabel, o.keys, o.dist, threads)
	if o.valSpec != "" {
		title += " valsize=" + o.valSpec
	}
	if o.churn.Enabled() {
		title += fmt.Sprintf(" churn=%d", o.churn.AfterOps)
	}
	if o.chaos.Enabled() {
		title += " chaos"
	}
	series := make([]report.Series, len(metrics))
	for i, m := range metrics {
		series[i] = report.Series{
			Title:  fmt.Sprintf("%s — %s", title, m.Name),
			XLabel: "shards×batch",
			Names:  names,
		}
	}
	log := func(string, ...any) {}
	if !o.quiet {
		log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	var jsonRecs []storeJSONRecord
	var timelines []report.Series
	for _, nshards := range shardList {
		for _, ngroups := range groupList {
			for _, nbatch := range batchList {
				cells := make([][]float64, len(metrics))
				for i := range cells {
					cells[i] = make([]float64, len(ps))
				}
				for pi, p := range ps {
					log("  store: shards=%d groups=%d batch=%d policy=%v", nshards, ngroups, nbatch, p)
					res, err := harness.RunStore(harness.StoreConfig{
						Policy:           p,
						Threads:          threads,
						Duration:         o.duration,
						Keys:             o.keys,
						Shards:           nshards,
						Groups:           ngroups,
						Backing:          o.backing,
						Mix:              mix,
						Dist:             o.dist,
						Churn:            o.churn,
						Trace:            o.trace,
						TracePaced:       o.tracePaced,
						Chaos:            o.chaos,
						ChaosStart:       o.chaosStart,
						ChaosStop:        o.chaosStop,
						SampleEvery:      o.sample,
						BatchSize:        nbatch,
						ValueMin:         o.valMin,
						ValueMax:         o.valMax,
						ValueSmallPct:    o.valSmallPct,
						OpLatency:        true,
						ReclaimThreshold: o.rthresh,
						Seed:             o.seed,
					})
					if err != nil {
						return fmt.Errorf("store [shards=%d groups=%d batch=%d policy=%v]: %w", nshards, ngroups, nbatch, p, err)
					}
					for mi, m := range metrics {
						cells[mi][pi] = m.Get(res)
					}
					if res.Timeline != nil {
						timelines = append(timelines, figures.TimelineSeries(
							fmt.Sprintf("%s — timeline [shards=%d groups=%d batch=%d policy=%v, sample %v]",
								title, nshards, ngroups, nbatch, p, o.sample), res.Timeline))
					}
					if o.jsonPath != "" {
						rec := storeJSONRecord{
							Backing: o.backing, Policy: p.String(),
							Shards: nshards, Groups: ngroups, Batch: nbatch,
							Threads: threads, Metrics: map[string]float64{},
							Timeline: res.Timeline,
						}
						for mi, m := range metrics {
							rec.Metrics[m.Name] = cells[mi][pi]
						}
						jsonRecs = append(jsonRecs, rec)
					}
				}
				// Keep the ungrouped label bit-identical to the pre-group
				// sweeps ("8x32"), appending the member count only when it
				// actually differs from one domain.
				label := fmt.Sprintf("%dx%d", nshards, nbatch)
				if ngroups != 1 {
					label += fmt.Sprintf("g%d", ngroups)
				}
				for mi := range series {
					series[mi].AddRow(label, cells[mi])
				}
			}
		}
	}
	for i := range series {
		if err := o.render(&series[i]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	for i := range timelines {
		if err := o.render(&timelines[i]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if o.jsonPath != "" {
		if err := appendJSONLines(o.jsonPath, jsonRecs); err != nil {
			return fmt.Errorf("write %s: %w", o.jsonPath, err)
		}
	}
	return nil
}

// storeJSONRecord is one (shards, groups, batch, policy) cell of a
// store sweep, flattened for machine consumption (CI's BENCH_store.json
// trajectory).
type storeJSONRecord struct {
	Backing  string              `json:"backing"`
	Policy   string              `json:"policy"`
	Shards   int                 `json:"shards"`
	Groups   int                 `json:"groups"`
	Batch    int                 `json:"batch"`
	Threads  int                 `json:"threads"`
	Metrics  map[string]float64  `json:"metrics"`
	Timeline *telemetry.Timeline `json:"timeline,omitempty"` // present with -sample
}

// benchJSONRecord is one (x, policy) cell of a -ds or -serve sweep,
// flattened for machine consumption like storeJSONRecord is for -store
// (CI's BENCH_ds.json / BENCH_serve.json trajectories). X is the swept
// axis value: a thread count for -ds, a connection count for -serve.
type benchJSONRecord struct {
	Sweep   string             `json:"sweep"`  // "ds" or "serve"
	Target  string             `json:"target"` // structure (-ds) or backing (-serve)
	Policy  string             `json:"policy"`
	X       string             `json:"x"`
	Metrics map[string]float64 `json:"metrics"`
}

// seriesRecords flattens per-metric series (identical row/column grids,
// one series per metric, as SweepThreads/SweepServeConns build) into
// one record per (row, policy) cell.
func seriesRecords(sweep, target string, metricNames []string, series []report.Series) []benchJSONRecord {
	if len(series) == 0 {
		return nil
	}
	var recs []benchJSONRecord
	base := &series[0]
	for ri := range base.Rows {
		for ci, policy := range base.Names {
			rec := benchJSONRecord{
				Sweep: sweep, Target: target, Policy: policy,
				X: base.Rows[ri].X, Metrics: map[string]float64{},
			}
			for si := range series {
				rec.Metrics[metricNames[si]] = series[si].Rows[ri].Cells[ci]
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// appendJSONLines appends records to path as JSON lines, so repeated
// sweep invocations (CI runs several) accumulate one trajectory file.
func appendJSONLines[T any](path string, recs []T) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// directSweep runs one structure × all requested policies × the thread
// sweep and prints throughput, range throughput and per-scan latency
// quantiles (when the mix scans), and end-of-run memory state.
func directSweep(o sweepOpts) error {
	var mix workload.Mix
	switch o.mix {
	case "read-heavy":
		mix = workload.ReadHeavy
	case "update-heavy":
		mix = workload.UpdateHeavy
	case "scan-heavy":
		mix = workload.ScanHeavy
	case "kv":
		mix = workload.KVStore
	default:
		return fmt.Errorf("unknown mix %q (want read-heavy, update-heavy, scan-heavy or kv)", o.mix)
	}
	if o.rangePct < 0 {
		// Auto: range-capable structures get a 10% scan share by default
		// (the range dimension is the point of sweeping them); everything
		// else stays untouched — mixes that already scan, mixes that
		// cannot give up 10% of contains, and the kv mix (any overwrite
		// share), whose advertised get/put/overwrite/delete split must
		// stay comparable across structures. Pass -rangepct explicitly to
		// add scans to a kv sweep.
		o.rangePct = 0
		if harness.RangeCapable(o.ds) && mix.RangePct == 0 && mix.OverwritePct == 0 && mix.ContainsPct >= 10 {
			o.rangePct = 10
		}
	}
	if o.rangePct > 0 {
		// Carve the range share out of contains so the mix still sums to
		// 100 (update rates are the sweep's control variable).
		if o.rangePct > mix.ContainsPct {
			return fmt.Errorf("-rangepct %d exceeds the %s mix's contains share (%d%%)", o.rangePct, o.mix, mix.ContainsPct)
		}
		mix.ContainsPct -= o.rangePct
		mix.RangePct += o.rangePct
	}
	if o.rangeSpan <= 0 {
		return fmt.Errorf("-rangespan must be positive, got %d", o.rangeSpan)
	}

	threadCounts, err := parseInts(o.threads)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	ps := core.Policies()
	if o.policies != "" {
		ps = ps[:0]
		for _, name := range strings.Split(o.policies, ",") {
			p, err := core.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
	}

	title := fmt.Sprintf("%s %s (keyrange %d", o.ds, o.mix, o.keyRange)
	if mix.RangePct > 0 {
		title += fmt.Sprintf(", %d%% range queries, span %d", mix.RangePct, o.rangeSpan)
	}
	if o.churn.Enabled() {
		title += fmt.Sprintf(", churn %d ops/lease", o.churn.AfterOps)
	}
	title += ")"
	metrics := []figures.Metric{
		{Name: "throughput (ops/s)", Get: func(r harness.Result) float64 { return r.Throughput }},
	}
	// Per-op-class tail latencies: direct sweeps always profile
	// (harness.Config.OpLatency below), so the read/write split is
	// visible per policy, not just the blended mean.
	for _, cl := range []harness.OpClass{harness.OpGet, harness.OpPut, harness.OpOverwrite, harness.OpDelete} {
		if cl.MixShare(mix) == 0 {
			continue
		}
		cl := cl
		metrics = append(metrics,
			figures.OpLatencyMetric(fmt.Sprintf("%v latency p50 (µs)", cl), cl, 0.50),
			figures.OpLatencyMetric(fmt.Sprintf("%v latency p99 (µs)", cl), cl, 0.99),
		)
	}
	metrics = append(metrics, figures.Metric{
		Name: "value checksum failures",
		Get:  func(r harness.Result) float64 { return float64(r.ValueErrors) },
	}, figures.Metric{
		Name: "allocs/op",
		Get:  func(r harness.Result) float64 { return r.AllocsPerOp },
	}, figures.Metric{
		Name: "alloc bytes/op",
		Get:  func(r harness.Result) float64 { return r.AllocBytesPerOp },
	})
	if mix.RangePct > 0 {
		metrics = append(metrics,
			figures.Metric{Name: "range throughput (scans/s)", Get: func(r harness.Result) float64 { return r.RangeTput }},
			figures.Metric{Name: "keys per scan", Get: func(r harness.Result) float64 {
				if r.RangeOps == 0 {
					return 0
				}
				return float64(r.RangeKeys) / float64(r.RangeOps)
			}},
			// The scan-latency tail per policy — the histogram popbench
			// exists to expose: long reads hurt different schemes very
			// differently (cf. the paper's §5.1.2).
			figures.ScanLatencyMetric("scan latency p50 (µs)", 0.50),
			figures.ScanLatencyMetric("scan latency p90 (µs)", 0.90),
			figures.ScanLatencyMetric("scan latency p99 (µs)", 0.99),
			figures.ScanLatencyMaxMetric("scan latency max (µs)"),
		)
	}
	metrics = append(metrics,
		figures.Metric{Name: "unreclaimed at run end (nodes)", Get: func(r harness.Result) float64 { return float64(r.Unreclaimed) }},
		figures.Metric{Name: "leaked after flush (nodes)", Get: func(r harness.Result) float64 { return float64(r.LeakedAfter) }},
	)
	if o.churn.Enabled() {
		metrics = append(metrics,
			figures.Metric{Name: "thread releases", Get: func(r harness.Result) float64 { return float64(r.Lifecycle.Releases) }},
			figures.Metric{Name: "orphan nodes adopted", Get: func(r harness.Result) float64 { return float64(r.Lifecycle.OrphansAdopted) }},
		)
	}

	ctx := figures.Ctx{
		Duration: o.duration,
		Threads:  threadCounts,
		Seed:     o.seed,
		Log:      func(string, ...any) {},
	}
	if !o.quiet {
		ctx.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	series, err := figures.SweepThreads(ctx, title, harness.Config{
		DS:               o.ds,
		KeyRange:         o.keyRange,
		Mix:              mix,
		RangeSpan:        o.rangeSpan,
		Dist:             o.dist,
		Churn:            o.churn,
		ReclaimThreshold: o.rthresh,
		OpLatency:        true,
	}, ps, metrics)
	if err != nil {
		return err
	}
	for i := range series {
		if err := o.render(&series[i]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if o.jsonPath != "" {
		names := make([]string, len(metrics))
		for i, m := range metrics {
			names[i] = m.Name
		}
		if err := appendJSONLines(o.jsonPath, seriesRecords("ds", o.ds, names, series)); err != nil {
			return fmt.Errorf("write %s: %w", o.jsonPath, err)
		}
	}
	return nil
}

// parseValSize parses the -valsize spec into harness StoreConfig value
// knobs: "" keeps the harness defaults, "fixed:N" pins every payload to
// N bytes, "uniform:MIN,MAX" draws uniformly, and
// "mixed:PCT,SMALL,LARGE" makes PCT% of payloads SMALL bytes and the
// rest LARGE — the inline-vs-arena ratio dial.
func parseValSize(spec string) (vmin, vmax, smallPct int, err error) {
	if spec == "" {
		return 0, 0, 0, nil
	}
	usage := fmt.Errorf("bad -valsize %q (want fixed:N, uniform:MIN,MAX or mixed:PCT,SMALL,LARGE)", spec)
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, 0, usage
	}
	nums, err := parseInts(rest)
	if err != nil {
		return 0, 0, 0, usage
	}
	switch {
	case kind == "fixed" && len(nums) == 1:
		return nums[0], nums[0], 0, nil
	case kind == "uniform" && len(nums) == 2 && nums[0] <= nums[1]:
		return nums[0], nums[1], 0, nil
	case kind == "mixed" && len(nums) == 3 && nums[0] <= 100 && nums[1] <= nums[2]:
		return nums[1], nums[2], nums[0], nil
	}
	return 0, 0, 0, usage
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("thread count must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
