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
// supports A–D (the wire protocol has no scan or rmw command). A store
// sweep whose mix or trace scans builds (a,b)-tree shards (abt), and
// any other builds hash-table shards (hmht); the table titles name it.
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
// tails under thread turnover are explainable; one run per N is the
// turnover sweep.
//
// Each sweep reads only its own flags: -mix, -rangepct and -rangespan
// are -ds flags; -shards, -batch, -groups, -mputpct, -valsize, -trace,
// -sample, -chaosstart and -chaosstop are -store flags; -conns, -slots,
// -openrate and -getpct are -serve flags; -scale is a -figure flag. A
// flag set on the command line that the chosen sweep does not read is a
// usage error (exit status 2), not a silent no-op — and so is one that
// another set flag leaves unread: -ycsb names its own -dist and
// -getpct, and -trace is the whole workload (no -ycsb, no -dist).
//
// Examples:
//
//	popbench -list
//	popbench -figure fig2a -duration 2s -threads 1,2,4,8,16
//	popbench -figure all -scale 128 -duration 500ms -tsv > results.tsv
//	popbench -figure fig4 -policies NR,EBR,NBR,HazardPtrPOP,EpochPOP
//	popbench -ds skl -rangepct 10 -rangespan 200
//	popbench -ds abt -csv > abt.csv
//	popbench -ds abt -mix scan-heavy -keyrange 100000
//	popbench -ds skl -mix kv -duration 1s -csv > kv.csv
//	popbench -ds hmht -mix kv -keyrange 1000000 -dist zipf
//	popbench -ds skl -mix kv -churn 5000
//	popbench -store -shards 1,4,16 -batch 8,64 -dist zipf
//	popbench -store -churn 2000 -shards 8
//	popbench -store -ycsb B -keyrange 1000000 -csv > store.csv
//	popbench -store -valsize mixed:80,6,256 -ycsb B
//	popbench -ycsb B -threads 8
//	popbench -ycsb D -serve -conns 32
//	popbench -trace ops.trace -tracepaced
//	popbench -ycsb A -chaos
//
// The -scale flag divides the paper's structure sizes (defaults to 64 so
// a laptop run finishes); -scale 1 runs the full-size structures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/figures"
	"pop/internal/harness"
	"pop/internal/report"
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
	// The sweep: -serve, else -store, else -ds; -ycsb and -trace without
	// -ds imply -store. A flag the sweep does not read is a usage error.
	mode := "-figure"
	switch {
	case *serveMode:
		mode = "-serve"
	case *storeMode, *dsName == "" && (*ycsbName != "" || *traceFile != ""):
		mode = "-store"
	case *dsName != "":
		mode = "-ds"
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		if modes, ok := sweepFlags[f.Name]; ok && !slices.Contains(modes, mode) {
			die(2, "-%s applies to %s, not to the %s sweep", f.Name, strings.Join(modes, ", "), mode)
		}
		set[f.Name] = true
	})
	for _, o := range overrides {
		if set[o.flag] && set[o.by] {
			die(2, "-%s does not apply with -%s: %s", o.flag, o.by, o.why)
		}
	}
	dist, err := workload.ParseDist(*distName)
	if err != nil {
		die(2, "%v", err)
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
	var chaosCfg chaos.Config
	if *chaosOn {
		chaosCfg = chaos.Default()
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
		policies: ps, threads: threadCounts, ycsb: *ycsbName,
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
	// Each sweep's trial config carries every flag that applies to it;
	// a grid cell copies it and sets only the axes the sweep varies.
	reclaim := core.Options{ReclaimThreshold: *rthresh}
	churn := workload.Churn{AfterOps: *churnOps}
	var sweep func() error
	switch mode {
	case "-serve":
		sweep = serveSweepOpts{sweepCommon: common, conns: *connsCSV, cfg: harness.ServeConfig{
			Slots: *slots, Duration: *duration, Keys: *keyRange, Seed: *seed,
			GetPct: *getPct, OpenRate: *openRate, Dist: dist, Chaos: chaosCfg,
		}}.run
	case "-store":
		sweep = storeSweepOpts{
			sweepCommon: common,
			shards:      *shardsCSV, batches: *batchCSV, groups: *groupsCSV, mputPct: *mputPct,
			traceName: *traceFile, valSpec: *valSize,
			cfg: harness.StoreConfig{
				Threads: threadCounts[len(threadCounts)-1], Duration: *duration, Keys: *keyRange,
				Seed: *seed, Dist: dist, Churn: churn, Reclaim: reclaim,
				Trace: trace, TracePaced: *tracePaced,
				Chaos: chaosCfg, ChaosStart: *chaosFrom, ChaosStop: *chaosTo, SampleEvery: *sampleDur,
				ValueMin: valMin, ValueMax: valMax, ValueSmallPct: valSmallPct, OpLatency: true,
			},
		}.run
	case "-ds":
		sweep = sweepOpts{sweepCommon: common, mix: *mixName, rangePct: *rangePct, cfg: harness.Config{
			DS: *dsName, Duration: *duration, KeyRange: *keyRange, RangeSpan: *rangeSpan, Seed: *seed,
			Dist: dist, Churn: churn, Reclaim: reclaim, OpLatency: true,
		}}.run
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

// sweepFlags names each flag that only some sweeps read, with the
// sweeps that read it; a flag absent here applies to every sweep.
var sweepFlags = map[string][]string{
	"figure":     {"-figure"},
	"scale":      {"-figure"},
	"threads":    {"-figure", "-ds", "-store"},
	"ds":         {"-ds"},
	"mix":        {"-ds"},
	"rangepct":   {"-ds"},
	"rangespan":  {"-ds"},
	"keyrange":   {"-ds", "-store", "-serve"},
	"dist":       {"-ds", "-store", "-serve"},
	"json":       {"-ds", "-store", "-serve"},
	"churn":      {"-ds", "-store"},
	"rthresh":    {"-ds", "-store"},
	"ycsb":       {"-store", "-serve"},
	"chaos":      {"-store", "-serve"},
	"store":      {"-store"},
	"trace":      {"-store"},
	"tracepaced": {"-store"},
	"chaosstart": {"-store"},
	"chaosstop":  {"-store"},
	"sample":     {"-store"},
	"valsize":    {"-store"},
	"shards":     {"-store"},
	"batch":      {"-store"},
	"groups":     {"-store"},
	"mputpct":    {"-store"},
	"conns":      {"-serve"},
	"slots":      {"-serve"},
	"openrate":   {"-serve"},
	"getpct":     {"-serve"},
}

// overrides names each flag that another set flag leaves unread.
var overrides = []struct{ flag, by, why string }{
	{"ycsb", "trace", "a trace is the workload"},
	{"dist", "trace", "trace replay draws no keys"},
	{"dist", "ycsb", "the YCSB workload names its own key distribution"},
	{"getpct", "ycsb", "the YCSB workload names its own get share"},
}

// die reports a fatal error and exits: status 2 for a usage error, 1
// for a run that failed.
func die(status int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "popbench: "+format+"\n", args...)
	os.Exit(status)
}

// sweepCommon is what the direct sweeps share besides their trial
// config: the swept policies and thread counts, the YCSB workload, and
// where the tables go.
type sweepCommon struct {
	policies []core.Policy // -policies, or every policy
	threads  []int         // -threads
	ycsb     string        // YCSB workload name ("" = the sweep's own mix)
	jsonPath string        // JSON-lines sink ("" = none)
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

// sweepOpts is the -ds direct sweep: cfg is every cell's trial, less
// its policy, thread count and (set in run) mix.
type sweepOpts struct {
	sweepCommon
	cfg      harness.Config
	mix      string // -mix name
	rangePct int    // -1 = auto
}

// storeSweepOpts is the -store sweep: cfg is every cell's trial, less
// its policy, shards, groups and batch width, and (set in run) its mix.
type storeSweepOpts struct {
	sweepCommon
	cfg       harness.StoreConfig
	shards    string // csv shard counts
	batches   string // csv batch sizes
	groups    string // csv domain-group member counts
	mputPct   int    // PutBatch share carved from the put share
	traceName string // -trace file (title)
	valSpec   string // the raw -valsize spec (title; "" = defaults)
}

// serveSweepOpts is the -serve sweep: cfg is every cell's trial, less
// its policy and connection count.
type serveSweepOpts struct {
	sweepCommon
	cfg   harness.ServeConfig
	conns string // csv connection counts
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
		o.cfg.GetPct = w.Mix.GetPct
		o.cfg.Dist = w.Dist
		label = fmt.Sprintf("YCSB %s, ", w.Name)
	}
	loop := "closed loop"
	if o.cfg.OpenRate > 0 {
		loop = fmt.Sprintf("open loop %.0f op/s", o.cfg.OpenRate)
	}
	metrics := figures.ServeMetrics()
	if o.cfg.Chaos.Enabled() {
		loop += ", chaos"
		metrics = append(metrics, chaosMetrics(func(r harness.ServeResult) chaos.Stats { return r.Chaos })...)
	}
	series, err := figures.Grid[harness.ServeResult]{
		Title: fmt.Sprintf("serve %s (%s%d slots, %d keys, %v dist, %d%% gets, %s)",
			harness.DSHashTable, label, o.cfg.Slots, o.cfg.Keys, o.cfg.Dist, o.cfg.GetPct, loop),
		XLabel: "conns",
		Rows:   figures.Labels(connList), Cols: figures.PolicyNames(o.policies), Metrics: metrics,
		Run: func(r, c int) (harness.ServeResult, error) {
			cfg := o.cfg
			cfg.Policy, cfg.Conns = o.policies[c], connList[r]
			return harness.RunServe(cfg)
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	return o.emit(series, seriesRecords("serve", harness.DSHashTable, metrics, series))
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
	type R = harness.StoreResult

	traceMode := len(o.cfg.Trace) > 0
	o.cfg.Mix = workload.StoreServe
	mixLabel := "serve mix"
	if o.ycsb != "" {
		w, err := workload.ParseYCSB(o.ycsb)
		if err != nil {
			return err
		}
		o.cfg.Mix = w.Mix
		o.cfg.Dist = w.Dist
		mixLabel = "YCSB " + w.Name
	}

	cm := figures.Shared[R]()
	metrics := []figures.Metric[R]{
		cm.Throughput,
		{Name: "served keys/s", Get: func(r R) float64 { return r.KeyTput }},
		figures.StoreLat("get latency p50 (µs)", workload.StoreGet, 0.50),
		figures.StoreLat("get latency p99 (µs)", workload.StoreGet, 0.99),
	}
	if o.cfg.Mix.MGetPct > 0 || traceMode {
		metrics = append(metrics, figures.StoreLat("mget latency p99 (µs)", workload.StoreMGet, 0.99))
	}
	metrics = append(metrics,
		figures.StoreLat("put latency p99 (µs)", workload.StorePut, 0.99),
		figures.Metric[R]{Name: "stale value reads", Get: func(r R) float64 { return float64(r.Store.StaleReads) }},
		cm.ValueErrors, cm.AllocsPerOp, cm.AllocBytesPerOp, cm.Unreclaimed, cm.Leaked,
		// The fan-out view: how many thread-list entries a reclamation
		// pass walks, and how many pings it sends — the quantity grouping
		// divides by the member count.
		cm.PingsPerPass, cm.ScannedPerPass,
	)
	if o.cfg.Churn.Enabled() {
		// Elastic sweeps report the turnover they generated, so tails
		// and garbage are explainable per lease rate.
		metrics = append(metrics, cm.Releases, cm.OrphansAdopted)
	}
	if traceMode {
		mixLabel = fmt.Sprintf("trace %s, %d ops", o.traceName, len(o.cfg.Trace))
		if o.cfg.TracePaced {
			mixLabel += ", paced"
		}
	}
	if o.cfg.Ordered() {
		metrics = append(metrics, figures.StoreLat("scan latency p99 (µs)", workload.StoreScan, 0.99))
	}
	mix := &o.cfg.Mix
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
		metrics = append(metrics, figures.StoreLat("rmw latency p99 (µs)", workload.StoreRMW, 0.99))
	}
	if mix.MPutPct > 0 {
		metrics = append(metrics, figures.StoreLat("mput latency p99 (µs)", workload.StoreMPut, 0.99))
	}
	if o.cfg.Chaos.Enabled() {
		metrics = append(metrics, chaosMetrics(func(r R) chaos.Stats { return r.Chaos })...)
	}

	title := fmt.Sprintf("store %s (%s, %d keys, %v dist, %d threads)", o.cfg.Structure(), mixLabel, o.cfg.Keys, o.cfg.Dist, o.cfg.Threads)
	if o.valSpec != "" {
		title += " valsize=" + o.valSpec
	}
	if o.cfg.Churn.Enabled() {
		title += fmt.Sprintf(" churn=%d", o.cfg.Churn.AfterOps)
	}
	if o.cfg.Chaos.Enabled() {
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
			cfg := o.cfg
			cfg.Policy, cfg.Shards, cfg.Groups, cfg.BatchSize = o.policies[c], rows[r].shards, rows[r].groups, rows[r].batch
			res, err := harness.RunStore(cfg)
			cellTimelines[r*len(o.policies)+c] = res.Timeline
			return res, err
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	recs := seriesRecords("store", o.cfg.Structure(), metrics, series)
	for i := range recs {
		row := rows[i/len(o.policies)]
		recs[i].Shards, recs[i].Groups, recs[i].Batch, recs[i].Threads = row.shards, row.groups, row.batch, o.cfg.Threads
		recs[i].Timeline = cellTimelines[i]
		if tl := cellTimelines[i]; tl != nil {
			series = append(series, figures.TimelineSeries(
				fmt.Sprintf("%s — timeline [shards=%d groups=%d batch=%d policy=%s, sample %v]",
					title, row.shards, row.groups, row.batch, recs[i].Policy, o.cfg.SampleEvery), tl))
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
	Target  string             `json:"target"` // structure: the -ds one, or the store's per-shard abt or hmht
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
		if harness.RangeCapable(o.cfg.DS) && mix.RangePct == 0 && mix.OverwritePct == 0 && mix.ContainsPct >= 10 {
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
	if o.cfg.RangeSpan <= 0 {
		return fmt.Errorf("-rangespan must be positive, got %d", o.cfg.RangeSpan)
	}
	o.cfg.Mix = mix

	title := fmt.Sprintf("%s %s (keyrange %d", o.cfg.DS, o.mix, o.cfg.KeyRange)
	if mix.RangePct > 0 {
		title += fmt.Sprintf(", %d%% range queries, span %d", mix.RangePct, o.cfg.RangeSpan)
	}
	if o.cfg.Churn.Enabled() {
		title += fmt.Sprintf(", churn %d ops/lease", o.cfg.Churn.AfterOps)
	}
	title += ")"
	type R = harness.Result
	cm := figures.Shared[R]()
	metrics := []figures.Metric[R]{cm.Throughput}
	// Per-op tail latencies: direct sweeps always profile
	// (harness.Config.OpLatency, set in main), so the read/write split is
	// visible per policy, not just the blended mean.
	for _, op := range []workload.Op{workload.Get, workload.Put, workload.Overwrite, workload.Delete} {
		if mix.Share(op) == 0 {
			continue
		}
		metrics = append(metrics,
			figures.OpLat(fmt.Sprintf("%v latency p50 (µs)", op), op, 0.50),
			figures.OpLat(fmt.Sprintf("%v latency p99 (µs)", op), op, 0.99),
		)
	}
	metrics = append(metrics, cm.ValueErrors, cm.AllocsPerOp, cm.AllocBytesPerOp)
	if mix.RangePct > 0 {
		metrics = append(metrics,
			figures.Metric[R]{Name: "range throughput (scans/s)", Get: func(r R) float64 { return r.RangeTput }},
			figures.Metric[R]{Name: "keys per scan", Get: func(r R) float64 {
				if r.OpCounts[workload.RangeQuery] == 0 {
					return 0
				}
				return float64(r.RangeKeys) / float64(r.OpCounts[workload.RangeQuery])
			}},
			// The scan-latency tail per policy — the histogram popbench
			// exists to expose: long reads hurt different schemes very
			// differently (cf. the paper's §5.1.2).
			figures.OpLat("scan latency p50 (µs)", workload.RangeQuery, 0.50),
			figures.OpLat("scan latency p90 (µs)", workload.RangeQuery, 0.90),
			figures.OpLat("scan latency p99 (µs)", workload.RangeQuery, 0.99),
			figures.OpLat("scan latency max (µs)", workload.RangeQuery, 1),
		)
	}
	metrics = append(metrics, cm.Unreclaimed, cm.Leaked)
	if o.cfg.Churn.Enabled() {
		metrics = append(metrics, cm.Releases, cm.OrphansAdopted)
	}

	series, err := figures.Grid[R]{
		Title: title, XLabel: "threads",
		Rows: figures.Labels(o.threads), Cols: figures.PolicyNames(o.policies), Metrics: metrics,
		Run: func(r, c int) (R, error) {
			cfg := o.cfg
			cfg.Policy, cfg.Threads = o.policies[c], o.threads[r]
			return harness.Run(cfg)
		},
	}.Series(o.log)
	if err != nil {
		return err
	}
	return o.emit(series, seriesRecords("ds", o.cfg.DS, metrics, series))
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
