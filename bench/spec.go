package main

import (
	"fmt"

	"pop/internal/core"
	"pop/internal/workload"
)

// kind is the layer a workload enters the system at.
type kind int

const (
	kindList  kind = iota // ds.Map (hmlist) called directly
	kindStore             // store.Store called in process
	kindServe             // server.Server over loopback TCP
)

// spec is one workload. Everything the program under test sees is derived
// from these fields and the seed: keys, values and an op sequence. It is
// never handed the seed or the name.
type spec struct {
	name     string
	why      string
	kind     kind
	keys     int64 // key range (list, prefilled to half) or population (store, serve)
	valueLen int   // payload bytes (store, serve)
	dist     workload.Dist
	readPct  int // share of reads; the rest are writes
	policy   core.Policy
	warmOps  int // warm-up is an op count, so setup_s scales with the code and not with a timer
	traceOps int // ops in the traced pass
}

const workers = 2 // closed-loop callers: goroutines or TCP connections

var specs = []spec{
	{
		name: "list-read",
		why:  "paper's read-heavy cell: ~500 protected hops per op in a cache-resident list, so core protect/publish and ds traversal are all the work",
		kind: kindList, keys: 2048, dist: workload.Uniform, readPct: 90,
		policy: core.HazardPtrPOP, warmOps: 400_000, traceOps: 400_000,
	},
	{
		name: "store-read",
		why:  "YCSB-B on the default store at 1M keys: a working set far beyond cache, where hash, skiplist descent and arena seqlock read dominate",
		kind: kindStore, keys: 1_000_000, valueLen: 64, dist: workload.Zipf, readPct: 95,
		policy: core.EpochPOP, warmOps: 100_000, traceOps: 100_000,
	},
	{
		name: "store-update",
		why:  "YCSB-A on the same store: every put replaces a node and an arena slot, so ds overwrite, arena recycling and core retire/reclaim passes do the work",
		kind: kindStore, keys: 1_000_000, valueLen: 64, dist: workload.Zipf, readPct: 50,
		policy: core.EpochPOP, warmOps: 10_000, traceOps: 20_000,
	},
	{
		name: "serve-read",
		why:  "95/5 get/set over two loopback TCP connections: parse, admission, coalescing and reply flush dominate, so ds and store changes should barely show",
		kind: kindServe, keys: 100_000, valueLen: 64, dist: workload.Zipf, readPct: 95,
		policy: core.EpochPOP, warmOps: 20_000, traceOps: 40_000,
	},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sideServe is the rung above a workload that does not enter at the
// server: a loopback server fed the same key distribution, read share and
// value size, so the server.* and (for list-read) store.* rungs are
// measured in every traced run. Its population is capped so it costs well
// under a second.
func (sp spec) sideServe() spec {
	side := sp
	side.name = sp.name + "+serve"
	side.kind = kindServe
	side.policy = core.EpochPOP
	side.keys = min(sp.keys, 100_000)
	if side.valueLen == 0 {
		side.valueLen = 64
	}
	side.warmOps = 5_000
	side.traceOps = 24_000
	return side
}

// metricDef names a metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: the relative worsening that counts as a regression
}

// endToEnd is what a user of the system sees; every workload reports all
// of them from the untraced slices.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"ops_per_s", "ops/s", 0.20},
	{"read_p50_us", "us", 0.20},
	{"write_p50_us", "us", 0.20},
	{"read_p99_us", "us", 0.25},
	{"heap_mb", "MiB", 0.03},
}

// perLayer is the ladder; every traced run reports all of them.
var perLayer = []metricDef{
	{name: "core.protect_ns", unit: "ns"},
	{name: "core.retire_ns", unit: "ns"},
	{name: "core.passes", unit: "count"},
	{name: "core.pings_per_pass", unit: "count"},
	{name: "core.scanned_per_pass", unit: "count"},
	{name: "core.publishes", unit: "count"},
	{name: "core.pass_p50_us", unit: "us"},
	{name: "core.ping_ack_p50_us", unit: "us"},
	{name: "core.unreclaimed_peak", unit: "count"},
	{name: "core.freed_ratio", unit: "ratio"},
	{name: "core.pop_over_hp", unit: "x"},
	{name: "core.epop_over_ebr", unit: "x"},
	{name: "ds.get_ns", unit: "ns"},
	{name: "ds.get_p99_ns", unit: "ns"},
	{name: "ds.put_ns", unit: "ns"},
	{name: "ds.put_p99_ns", unit: "ns"},
	{name: "ds.outstanding_nodes", unit: "count"},
	{name: "ds.bytes_per_key", unit: "B"},
	{name: "arena.read_ns", unit: "ns"},
	{name: "arena.alloc_ns", unit: "ns"},
	{name: "arena.free_ns", unit: "ns"},
	{name: "arena.outstanding", unit: "count"},
	{name: "arena.slabs", unit: "count"},
	{name: "store.get_ns", unit: "ns"},
	{name: "store.put_ns", unit: "ns"},
	{name: "store.getbatch_ns_per_key", unit: "ns"},
	{name: "store.self_get_ns", unit: "ns"},
	{name: "store.self_put_ns", unit: "ns"},
	{name: "store.stale_read_ratio", unit: "ratio"},
	{name: "store.miss_ratio", unit: "ratio"},
	{name: "store.allocs_per_op", unit: "count"},
	{name: "store.alloc_bytes_per_op", unit: "B"},
	{name: "server.parse_ns", unit: "ns"},
	{name: "server.readcmd_set_ns", unit: "ns"},
	{name: "server.rtt_get_us", unit: "us"},
	{name: "server.self_get_us", unit: "us"},
	{name: "server.coalesce_ratio", unit: "ratio"},
	{name: "server.batch_width", unit: "count"},
	{name: "server.admission_waits", unit: "count"},
	{name: "server.protocol_errors", unit: "count"},
	{name: "server.allocs_per_op", unit: "count"},
	{name: "workload.next_ns", unit: "ns"},
	// An end-to-end reading without a bound: over two connections' 5% of
	// sets the 99th percentile moved by half between runs, so no bound
	// that means anything holds on every workload.
	{name: "write_p99_us", unit: "us"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.calib_cpu_ms", unit: "ms"},
	{name: "bench.calib_mem_ms", unit: "ms"},
	{name: "bench.disturbed_slices", unit: "count"},
}
