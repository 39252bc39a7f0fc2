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
		die(2, "%v", err)
	}
	if *ycsbName != "" && *dsName != "" {
		die(2, "-ycsb applies to the -store and -serve paths, not -ds")
	}
	if *traceFile != "" && (*serveMode || *dsName != "") {
		die(2, "-trace replays through the store path only")
	}
	if *traceFile != "" && *ycsbName != "" {
		die(2, "-trace and -ycsb are mutually exclusive (a trace is the workload)")
	}
	var trace []workload.TraceOp
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			die(2, "%v", err)
		}
		trace, err = workload.ParseTrace(f)
		f.Close()
		if err != nil {
			die(2, "%v", err)
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
			die(2, "-chaos applies to the -store and -serve paths")
		}
		chaosCfg = chaos.Default()
	}
	if (*chaosFrom > 0 || *chaosTo > 0) && !*storeMode {
		die(2, "-chaosstart/-chaosstop window the -store path's injectors")
	}
	if *sampleDur > 0 && !*storeMode {
		die(2, "-sample applies to the -store path (-figure timeline samples the canonical run)")
	}
	if *valSize != "" && !*storeMode {
		die(2, "-valsize applies to the -store path")
	}
	valMin, valMax, valSmallPct, err := parseValSize(*valSize)
	if err != nil {
		die(2, "%v", err)
	}
	ps, err := parsePolicies(*policies)
	if err != nil {
		die(2, "%v", err)
	}
	threadCounts, err := parseInts(*threads)
	if err != nil {
		die(2, "bad -threads: %v", err)
	}
	common := sweepCommon{
		duration: *duration, seed: *seed, policies: ps, threads: threadCounts,
		keys: *keyRange, dist: dist, backing: *backing, ycsb: *ycsbName, chaos: chaosCfg,
		churn: workload.Churn{AfterOps: *churnOps}, rthresh: *rthresh,
		jsonPath: *jsonOut, render: render, log: func(string, ...any) {},
	}
	if common.policies == nil {
		common.policies = core.Policies()
	}
	if !*quiet {
		common.log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var sweep func() error
	switch {
	case *serveMode:
		sweep = serveSweepOpts{
			sweepCommon: common,
			conns:       *connsCSV, slots: *slots, openRate: *openRate, getPct: *getPct,
		}.run
	case *storeMode:
		sweep = storeSweepOpts{
			sweepCommon: common,
			shards:      *shardsCSV, batches: *batchCSV, groups: *groupsCSV, mputPct: *mputPct,
			chaosStart: *chaosFrom, chaosStop: *chaosTo, sample: *sampleDur,
			trace: trace, traceName: *traceFile, tracePaced: *tracePaced,
			valSpec: *valSize, valMin: valMin, valMax: valMax, valSmallPct: valSmallPct,
		}.run
	case *dsName != "":
		sweep = sweepOpts{
			sweepCommon: common,
			ds:          *dsName, mix: *mixName, rangePct: *rangePct, rangeSpan: *rangeSpan,
		}.run
	}
	if sweep != nil {
		if err := sweep(); err != nil {
			die(1, "%v", err)
		}
		return
	}
	if *figureID == "" {
		die(2, "-figure or -ds required (use -list to see figure ids)")
	}

	ctx := figures.Ctx{
		Duration: *duration,
		Scale:    *scale,
		Seed:     *seed,
		Threads:  threadCounts,
		Policies: ps,
		Log:      common.log,
	}

	var toRun []figures.Figure
	if *figureID == "all" {
		toRun = figures.All()
	} else {
		for _, id := range strings.Split(*figureID, ",") {
			f, ok := figures.Get(strings.TrimSpace(id))
			if !ok {
				die(2, "unknown figure %q (use -list)", id)
			}
			toRun = append(toRun, f)
		}
	}

	for _, f := range toRun {
		common.log("== %s: %s", f.ID, f.Desc)
		series, err := f.Run(ctx)
		if err != nil {
			die(1, "%s failed: %v", f.ID, err)
		}
		if err := common.emit(series, nil); err != nil {
			die(1, "%v", err)
		}
	}
}

// die reports a fatal error and exits: status 2 for a usage error, 1
// for a run that failed.
func die(status int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "popbench: "+format+"\n", args...)
	os.Exit(status)
}

// sweepCommon is what the direct sweeps take from the flags they share
// (a sweep ignores the ones that do not apply to it, as the flags do).
type sweepCommon struct {
	duration time.Duration
	seed     uint64
	policies []core.Policy // -policies, or every policy
	threads  []int         // -threads
	keys     int64         // -keyrange: key range (-ds) or key population
	dist     workload.Dist
	backing  string // -store, -serve
	ycsb     string // YCSB workload name ("" = the sweep's own mix)
	chaos    chaos.Config
	churn    workload.Churn
	rthresh  int    // per-slot reclamation threshold (0 = paper default)
	jsonPath string // JSON-lines sink ("" = none)
	render   func(*report.Series) error
	log      func(string, ...any) // progress lines (a no-op under -quiet)
}

// emit renders the series and, when -json names a file, appends recs to
// it.
func (c sweepCommon) emit(series []report.Series, recs []benchJSONRecord) error {
	for i := range series {
		if err := c.render(&series[i]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if c.jsonPath != "" && len(recs) > 0 {
		if err := appendJSONLines(c.jsonPath, recs); err != nil {
			return fmt.Errorf("write %s: %w", c.jsonPath, err)
		}
	}
	return nil
}

// parsePolicies resolves the -policies list; nil when the flag is unset.
func parsePolicies(csv string) ([]core.Policy, error) {
	if csv == "" {
		return nil, nil
	}
	var ps []core.Policy
	for _, name := range strings.Split(csv, ",") {
		p, err := core.ParsePolicy(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// sweepOpts carries the -ds direct-sweep flag values.
type sweepOpts struct {
	sweepCommon
	ds, mix   string
	rangePct  int // -1 = auto
	rangeSpan int64
}

// storeSweepOpts carries the -store sweep flag values.
type storeSweepOpts struct {
	sweepCommon
	shards      string // csv shard counts
	batches     string // csv batch sizes
	groups      string // csv domain-group member counts
	mputPct     int    // PutBatch share carved from the put share
	trace       []workload.TraceOp
	traceName   string
	tracePaced  bool
	chaosStart  time.Duration // burst window start (0 = immediate)
	chaosStop   time.Duration // burst window end (0 = run end)
	sample      time.Duration // telemetry sampling interval (0 = off)
	valSpec     string        // the raw -valsize spec (title/labels; "" = defaults)
	valMin      int           // payload size bounds (0 = harness defaults)
	valMax      int
	valSmallPct int // bimodal small-share percent (0 = uniform draw)
}

// serveSweepOpts carries the -serve sweep flag values.
type serveSweepOpts struct {
	sweepCommon
	conns    string // csv connection counts
	slots    int
	openRate float64
	getPct   int
}

// chaosMetrics are the injector-activity columns -store and -serve add
// under -chaos.
func chaosMetrics[R any](stats func(R) chaos.Stats) []figures.Metric[R] {
	return []figures.Metric[R]{
		{Name: "chaos injector ops", Get: func(r R) float64 { return float64(stats(r).Ops) }},
		{Name: "chaos stall windows", Get: func(r R) float64 { return float64(stats(r).Stalls) }},
		{Name: "chaos lease cycles", Get: func(r R) float64 { return float64(stats(r).Leases) }},
	}
}

// run sweeps the live TCP serving front across connection counts ×
// policies: one row per connection count, one column per policy, one
// table per metric. Rows where conns exceed -slots are the admission
// story — clients queue for thread leases instead of being refused, and
// the wait shows up in the client-observed tails and the admission-wait
// distribution.
func (o serveSweepOpts) run() error {
	connList, err := parseInts(o.conns)
	if err != nil {
		return fmt.Errorf("bad -conns: %w", err)
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
	metrics := figures.ServeMetrics()
	if o.chaos.Enabled() {
		loop += ", chaos"
		metrics = append(metrics, chaosMetrics(func(r harness.ServeResult) chaos.Stats { return r.Chaos })...)
	}
	series, err := figures.Grid[harness.ServeResult]{
		Title: fmt.Sprintf("serve %s (%s%d slots, %d keys, %v dist, %d%% gets, %s)",
			o.backing, label, o.slots, o.keys, o.dist, o.getPct, loop),
		XLabel: "conns",
		Rows:   figures.Labels(connList), Cols: figures.PolicyNames(o.policies), Metrics: metrics,
		Run: func(r, c int) (harness.ServeResult, error) {
			return harness.RunServe(harness.ServeConfig{
				Policy:   o.policies[c],
				Slots:    o.slots,
				Conns:    connList[r],
				Duration: o.duration,
				Keys:     o.keys,
				Backing:  o.backing,
				GetPct:   o.getPct,
				OpenRate: o.openRate,
				Dist:     o.dist,
				Chaos:    o.chaos,
				Seed:     o.seed,
			})
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	return o.emit(series, seriesRecords("serve", o.backing, metrics, series))
}

// run sweeps the KV front across shards × groups × batch sizes × policies
// at the highest requested thread count: one row per (shards, groups,
// batch) combination, one column per policy, one table per metric. This
// is the capacity-planning view of the store — how shard count and batch
// width trade against each policy's serving tails.
func (o storeSweepOpts) run() error {
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
	threads := o.threads[len(o.threads)-1]
	type R = harness.StoreResult

	metrics := []figures.Metric[R]{
		{Name: "throughput (ops/s)", Get: func(r R) float64 { return r.Throughput }},
		{Name: "served keys/s", Get: func(r R) float64 { return r.KeyTput }},
		figures.StoreLat("get latency p50 (µs)", harness.SOpGet, 0.50),
		figures.StoreLat("get latency p99 (µs)", harness.SOpGet, 0.99),
		figures.StoreLat("mget latency p99 (µs)", harness.SOpMGet, 0.99),
		figures.StoreLat("put latency p99 (µs)", harness.SOpPut, 0.99),
		{Name: "stale value reads", Get: func(r R) float64 { return float64(r.Stale) }},
		{Name: "value checksum failures", Get: func(r R) float64 { return float64(r.ValueErrors) }},
		// Allocation accounting: whole-process heap-allocation rate over
		// the measured phase — the sweep-level view of the hot-path
		// memory diet (inline values and pooled nodes cost zero here).
		{Name: "allocs/op", Get: func(r R) float64 { return r.AllocsPerOp }},
		{Name: "alloc bytes/op", Get: func(r R) float64 { return r.AllocBytesPerOp }},
		{Name: "unreclaimed at run end (nodes)", Get: func(r R) float64 { return float64(r.Unreclaimed) }},
		{Name: "leaked after flush (nodes)", Get: func(r R) float64 { return float64(r.LeakedAfter) }},
		// The fan-out view (satellite of the domain-group work): how many
		// thread-list entries a reclamation pass walks, and how many pings
		// it sends — the quantity grouping divides by the member count.
		{Name: "reclaim pings per pass", Get: func(r R) float64 { return r.ReclaimDetail.PingsPerPass }},
		{Name: "reclaim threads scanned per pass", Get: func(r R) float64 { return r.ReclaimDetail.ScannedPerPass }},
	}
	if o.churn.Enabled() {
		// Elastic sweeps report the turnover they generated, so tails
		// and garbage are explainable per lease rate.
		metrics = append(metrics,
			figures.Metric[R]{Name: "thread releases", Get: func(r R) float64 { return float64(r.Lifecycle.Releases) }},
			figures.Metric[R]{Name: "orphan nodes adopted", Get: func(r R) float64 { return float64(r.Lifecycle.OrphansAdopted) }},
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
		metrics = append(metrics, figures.StoreLat("scan latency p99 (µs)", harness.SOpScan, 0.99))
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
		metrics = append(metrics, figures.StoreLat("rmw latency p99 (µs)", harness.SOpRMW, 0.99))
	}
	if mix.MPutPct > 0 {
		metrics = append(metrics, figures.StoreLat("mput latency p99 (µs)", harness.SOpMPut, 0.99))
	}
	if o.chaos.Enabled() {
		metrics = append(metrics, chaosMetrics(func(r R) chaos.Stats { return r.Chaos })...)
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

	// One row per (shards, groups, batch). The ungrouped label stays
	// bit-identical to the pre-group sweeps ("8x32"); the member count is
	// appended only when it differs from one domain.
	type rowSpec struct{ shards, groups, batch int }
	var rows []rowSpec
	var labels []string
	for _, nshards := range shardList {
		for _, ngroups := range groupList {
			for _, nbatch := range batchList {
				label := fmt.Sprintf("%dx%d", nshards, nbatch)
				if ngroups != 1 {
					label += fmt.Sprintf("g%d", ngroups)
				}
				rows = append(rows, rowSpec{nshards, ngroups, nbatch})
				labels = append(labels, label)
			}
		}
	}
	cellTimelines := make([]*telemetry.Timeline, len(rows)*len(o.policies)) // row-major; nil without -sample
	series, err := figures.Grid[R]{
		Title: title, XLabel: "shards×batch",
		Rows: labels, Cols: figures.PolicyNames(o.policies), Metrics: metrics,
		Run: func(r, c int) (R, error) {
			res, err := harness.RunStore(harness.StoreConfig{
				Policy:           o.policies[c],
				Threads:          threads,
				Duration:         o.duration,
				Keys:             o.keys,
				Shards:           rows[r].shards,
				Groups:           rows[r].groups,
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
				BatchSize:        rows[r].batch,
				ValueMin:         o.valMin,
				ValueMax:         o.valMax,
				ValueSmallPct:    o.valSmallPct,
				OpLatency:        true,
				ReclaimThreshold: o.rthresh,
				Seed:             o.seed,
			})
			cellTimelines[r*len(o.policies)+c] = res.Timeline
			return res, err
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	recs := seriesRecords("store", o.backing, metrics, series)
	for i := range recs {
		row := rows[i/len(o.policies)]
		recs[i].Shards, recs[i].Groups, recs[i].Batch, recs[i].Threads = row.shards, row.groups, row.batch, threads
		recs[i].Timeline = cellTimelines[i]
		if tl := cellTimelines[i]; tl != nil {
			series = append(series, figures.TimelineSeries(
				fmt.Sprintf("%s — timeline [shards=%d groups=%d batch=%d policy=%s, sample %v]",
					title, row.shards, row.groups, row.batch, recs[i].Policy, o.sample), tl))
		}
	}
	return o.emit(series, recs)
}

// benchJSONRecord is one (x, policy) cell of a direct sweep, flattened
// for machine consumption (one JSON line per cell). X is the row label:
// a thread count for -ds, a connection count for -serve, the
// shards×batch label for -store, whose records also carry the row's
// parameters and, with -sample, the cell's timeline.
type benchJSONRecord struct {
	Sweep   string             `json:"sweep"`  // "ds", "store" or "serve"
	Target  string             `json:"target"` // structure (-ds) or backing (-store, -serve)
	Policy  string             `json:"policy"`
	X       string             `json:"x"`
	Metrics map[string]float64 `json:"metrics"`

	Shards   int                 `json:"shards,omitempty"`
	Groups   int                 `json:"groups,omitempty"`
	Batch    int                 `json:"batch,omitempty"`
	Threads  int                 `json:"threads,omitempty"`
	Timeline *telemetry.Timeline `json:"timeline,omitempty"`
}

// seriesRecords flattens a grid's series (one per metric, identical
// rows and columns) into one record per cell, row-major.
func seriesRecords[R any](sweep, target string, metrics []figures.Metric[R], series []report.Series) []benchJSONRecord {
	var recs []benchJSONRecord
	base := &series[0]
	for ri := range base.Rows {
		for ci, policy := range base.Names {
			rec := benchJSONRecord{
				Sweep: sweep, Target: target, Policy: policy,
				X: base.Rows[ri].X, Metrics: map[string]float64{},
			}
			for si, m := range metrics {
				rec.Metrics[m.Name] = series[si].Rows[ri].Cells[ci]
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// appendJSONLines appends records to path as JSON lines, so repeated
// sweep invocations (CI runs several) accumulate one trajectory file.
func appendJSONLines(path string, recs []benchJSONRecord) error {
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

// run sweeps one structure × all requested policies × the thread counts
// and prints throughput, range throughput and per-scan latency quantiles
// (when the mix scans), and end-of-run memory state.
func (o sweepOpts) run() error {
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

	title := fmt.Sprintf("%s %s (keyrange %d", o.ds, o.mix, o.keys)
	if mix.RangePct > 0 {
		title += fmt.Sprintf(", %d%% range queries, span %d", mix.RangePct, o.rangeSpan)
	}
	if o.churn.Enabled() {
		title += fmt.Sprintf(", churn %d ops/lease", o.churn.AfterOps)
	}
	title += ")"
	type R = harness.Result
	metrics := []figures.Metric[R]{
		{Name: "throughput (ops/s)", Get: func(r R) float64 { return r.Throughput }},
	}
	// Per-op-class tail latencies: direct sweeps always profile
	// (harness.Config.OpLatency below), so the read/write split is
	// visible per policy, not just the blended mean.
	for _, cl := range []harness.OpClass{harness.OpGet, harness.OpPut, harness.OpOverwrite, harness.OpDelete} {
		if cl.MixShare(mix) == 0 {
			continue
		}
		metrics = append(metrics,
			figures.OpLat(fmt.Sprintf("%v latency p50 (µs)", cl), cl, 0.50),
			figures.OpLat(fmt.Sprintf("%v latency p99 (µs)", cl), cl, 0.99),
		)
	}
	metrics = append(metrics,
		figures.Metric[R]{Name: "value checksum failures", Get: func(r R) float64 { return float64(r.ValueErrors) }},
		figures.Metric[R]{Name: "allocs/op", Get: func(r R) float64 { return r.AllocsPerOp }},
		figures.Metric[R]{Name: "alloc bytes/op", Get: func(r R) float64 { return r.AllocBytesPerOp }},
	)
	if mix.RangePct > 0 {
		metrics = append(metrics,
			figures.Metric[R]{Name: "range throughput (scans/s)", Get: func(r R) float64 { return r.RangeTput }},
			figures.Metric[R]{Name: "keys per scan", Get: func(r R) float64 {
				if r.RangeOps == 0 {
					return 0
				}
				return float64(r.RangeKeys) / float64(r.RangeOps)
			}},
			// The scan-latency tail per policy — the histogram popbench
			// exists to expose: long reads hurt different schemes very
			// differently (cf. the paper's §5.1.2).
			figures.OpLat("scan latency p50 (µs)", harness.OpScan, 0.50),
			figures.OpLat("scan latency p90 (µs)", harness.OpScan, 0.90),
			figures.OpLat("scan latency p99 (µs)", harness.OpScan, 0.99),
			figures.OpLat("scan latency max (µs)", harness.OpScan, 1),
		)
	}
	metrics = append(metrics,
		figures.Metric[R]{Name: "unreclaimed at run end (nodes)", Get: func(r R) float64 { return float64(r.Unreclaimed) }},
		figures.Metric[R]{Name: "leaked after flush (nodes)", Get: func(r R) float64 { return float64(r.LeakedAfter) }},
	)
	if o.churn.Enabled() {
		metrics = append(metrics,
			figures.Metric[R]{Name: "thread releases", Get: func(r R) float64 { return float64(r.Lifecycle.Releases) }},
			figures.Metric[R]{Name: "orphan nodes adopted", Get: func(r R) float64 { return float64(r.Lifecycle.OrphansAdopted) }},
		)
	}

	series, err := figures.Grid[R]{
		Title: title, XLabel: "threads",
		Rows: figures.Labels(o.threads), Cols: figures.PolicyNames(o.policies), Metrics: metrics,
		Run: func(r, c int) (R, error) {
			return harness.Run(harness.Config{
				DS:               o.ds,
				Policy:           o.policies[c],
				Threads:          o.threads[r],
				Duration:         o.duration,
				KeyRange:         o.keys,
				Mix:              mix,
				RangeSpan:        o.rangeSpan,
				Dist:             o.dist,
				Churn:            o.churn,
				ReclaimThreshold: o.rthresh,
				OpLatency:        true,
				Seed:             o.seed,
			})
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	return o.emit(series, seriesRecords("ds", o.ds, metrics, series))
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

// parseInts parses a comma-separated list of positive integers (every
// list flag; callers prefix the flag's name to the error).
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("values must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
