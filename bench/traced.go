package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"pop/internal/core"
)

// The reproduction's floors: HazardPtrPOP at least 1.2x HP (the low end of
// the paper's 1.2-4x) and EpochPOP not far under EBR.
const (
	popOverHPFloor   = 1.2
	epopOverEBRFloor = 0.7
)

// paperRung measures the paper's two headline ratios on the list-read
// cell: HazardPtrPOP over HP (the paper: 1.2–4x) and EpochPOP over EBR
// (the paper: about 1). The four policies take turns slice by slice, so a
// drift of the machine lands on all of them alike.
func paperRung(m metrics, seed uint64, opt options) error {
	cell := opt.scaled(specs[0])
	cell.warmOps = 100_000 / opt.shrink
	policies := []core.Policy{core.HP, core.HazardPtrPOP, core.EBR, core.EpochPOP}
	insts := make([]instance, len(policies))
	for i, p := range policies {
		cell.policy = p
		var err error
		if insts[i], err = setup(cell, seed, nil); err != nil {
			return fmt.Errorf("paper rung: %w", err)
		}
	}
	rates := make([][]float64, len(policies))
	var failed uint64
	var popOverHP, epopOverEBR float64
	// A ratio under its floor has to repeat to count: the rounds are run a
	// second time and the medians taken over all of them before the run is
	// failed. A regression repeats; a neighbour's burst does not.
	for range 2 {
		for range opt.paperRounds {
			for i, in := range insts {
				st := runSlice(in.workers(), opt.paperSlice)
				rates[i] = append(rates[i], st.rate)
				failed += st.failed
			}
		}
		popOverHP = median(rates[1]) / median(rates[0])
		epopOverEBR = median(rates[3]) / median(rates[2])
		if !opt.paperFloors || popOverHP >= popOverHPFloor && epopOverEBR >= epopOverEBRFloor {
			break
		}
	}
	var errs []error
	for i, in := range insts {
		if err := in.finish(); err != nil {
			errs = append(errs, fmt.Errorf("paper rung: %v: %w", policies[i], err))
		}
	}
	if failed > 0 {
		errs = append(errs, fmt.Errorf("paper rung: %d ops failed", failed))
	}
	m.set("core.pop_over_hp", popOverHP)
	m.set("core.epop_over_ebr", epopOverEBR)
	if opt.paperFloors && popOverHP < popOverHPFloor {
		errs = append(errs, fmt.Errorf("paper rung: HazardPtrPOP/HP = %.3f, the paper's floor is %v", popOverHP, popOverHPFloor))
	}
	if opt.paperFloors && epopOverEBR < epopOverEBRFloor {
		errs = append(errs, fmt.Errorf("paper rung: EpochPOP/EBR = %.3f, below %v", epopOverEBR, epopOverEBRFloor))
	}
	return errors.Join(errs...)
}

// allocsPerOp returns the heap allocations and allocated bytes per op of
// run, which performs ops ops.
func allocsPerOp(ops int, run func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	run()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(ops), float64(b.TotalAlloc-a.TotalAlloc) / float64(ops)
}

// runTraced is the separate traced run that fills in the ladder. It sets
// the workload up once, takes two untraced slices as the reference for
// the tracing overhead, then records the traced pass on the same
// instance. Rungs above the workload's entry layer come from a side
// server fed the same key stream (spec.sideServe); rungs below it from
// the bench-owned ladder. No end-to-end metric is taken here.
func runTraced(sp spec, seed uint64, opt options) (*result, error) {
	sp = opt.scaled(sp)
	res := &result{Workload: sp.name, Seed: seed, Traced: true, Metrics: metrics{}}
	m := res.Metrics
	side := sp
	if sp.kind != kindServe {
		side = opt.scaled(sp.sideServe())
		side.keys = min(side.keys, sp.keys)
	}
	kt := newKeyTable(sp.keys)
	cal := newCalibrator(opt.calib)
	spin(opt.spin)

	own, err := setup(sp, seed, kt)
	if err != nil {
		return nil, err
	}
	insts := []instance{own}
	fail := func(err error) (*result, error) {
		for _, in := range insts {
			in.finish()
		}
		return nil, fmt.Errorf("%s: traced run: %w", sp.name, err)
	}

	// Untraced reference on the same warmed instance.
	ref := &result{Metrics: metrics{}}
	refOpt := opt
	refOpt.floorP50, refOpt.floorP99 = 0, 0
	if err := measure(ref, own, cal, refOpt, 2); err != nil {
		return fail(err)
	}
	m.set("write_p99_us", ref.Metrics["write_p99_us"])
	res.Attempted, res.Failed = ref.Attempted, ref.Failed
	res.Reruns, res.Clean = ref.Reruns, ref.Clean

	// The traced pass on the workload's own instance.
	lad := newLadder(sp, kt, opt.shrink)
	runtime.GC()
	recs, failed, wall := tracedPass(own.workers(), lad, sp.traceOps/workers)
	res.Attempted += uint64(sp.traceOps / workers * workers)
	res.Failed += failed
	tracedRate := float64(sp.traceOps/workers*workers) / wall.Seconds()
	m.set("bench.trace_overhead_pct", 100*(ref.Raw["ops_per_s"]-tracedRate)/ref.Raw["ops_per_s"])
	cs := own.coreStats()

	// The server rung: the workload's own instance, or the side server.
	serve, serveRecs, serveLad := own, recs, lad
	if sp.kind != kindServe {
		if serve, err = setup(side, seed, kt); err != nil {
			return fail(err)
		}
		insts = append(insts, serve)
		serveLad = newLadder(side, kt, opt.shrink)
		var f uint64
		serveRecs, f, _ = tracedPass(serve.workers(), serveLad, side.traceOps/workers)
		res.Attempted += uint64(side.traceOps / workers * workers)
		res.Failed += f
	}
	// The store rung: the workload's own store when it has one, else the
	// one inside the side server, where store spans are replays.
	storeRecs, storeLad, storeInst := recs, lad, own
	if sp.kind == kindList {
		storeRecs, storeLad, storeInst = serveRecs, serveLad, serve
	}
	storeOf := storeInst.storeOf()

	// Per-op spans.
	ds := [2]*hist{durations(recs, layerDS, false), durations(recs, layerDS, true)}
	m.set("ds.get_ns", ds[0].quantile(0.5))
	m.set("ds.get_p99_ns", ds[0].quantile(0.99))
	m.set("ds.put_ns", ds[1].quantile(0.5))
	m.set("ds.put_p99_ns", ds[1].quantile(0.99))
	m.set("store.get_ns", durations(storeRecs, layerStore, false).quantile(0.5))
	m.set("store.put_ns", durations(storeRecs, layerStore, true).quantile(0.5))
	m.set("server.rtt_get_us", durations(serveRecs, layerServer, false).quantile(0.5)/1e3)
	serveSelf, _ := selfTimes(serveRecs, false)
	m.set("server.self_get_us", serveSelf[layerServer]/1e3)

	// Counters at the same boundaries.
	m.set("core.passes", float64(cs.reclaim.Passes))
	m.set("core.pings_per_pass", cs.reclaim.PingsPerPass)
	m.set("core.scanned_per_pass", cs.reclaim.ScannedPerPass)
	m.set("core.publishes", float64(cs.stats.Publishes))
	m.set("core.unreclaimed_peak", float64(cs.stats.MaxRetire))
	m.set("core.freed_ratio", float64(cs.stats.Frees)/float64(cs.stats.Retires))
	m.set("ds.outstanding_nodes", float64(lad.sib.Outstanding()))
	m.set("ds.bytes_per_key", lad.perKey)
	ss := storeOf.Stats()
	m.set("arena.outstanding", float64(ss.Values.Outstanding))
	m.set("arena.slabs", float64(ss.Values.Slabs))
	m.set("store.stale_read_ratio", float64(ss.StaleReads)/float64(ss.Gets))
	m.set("store.miss_ratio", float64(ss.GetMisses)/float64(ss.Gets))
	if ss.GetMisses != 0 {
		return fail(fmt.Errorf("%d store gets missed; every key read was prefilled", ss.GetMisses))
	}
	sv := serve.(*serveInst).srv.Stats()
	m.set("server.coalesce_ratio", float64(sv.CoalescedGets)/float64(sv.ExecutorGets))
	m.set("server.batch_width", float64(sv.ExecutorGets)/float64(sv.CoalescedBatches))
	m.set("server.admission_waits", float64(sv.AdmissionWaits))
	m.set("server.protocol_errors", float64(sv.ProtocolErrors))

	// Batch-timed probes and allocation accounting, callers parked.
	if err := lad.probeCore(m, own.workers()[0].draw, kt.keys[0]); err != nil {
		return fail(err)
	}
	if err := storeLad.probeStore(m, storeInst.workers()[0].draw, storeOf, kt); err != nil {
		return fail(err)
	}
	n := 5_000 / opt.shrink
	allocs, _ := allocsPerOp(workers*n, func() { res.Failed += runOps(serve.workers(), n) })
	res.Attempted += uint64(workers * n)
	m.set("server.allocs_per_op", allocs)

	// The instances are done; the paper rung runs alone.
	self, root := selfTimes(recs, false)
	res.RootNs = root
	res.SelfNs = map[string]float64{}
	for l, v := range self {
		if !math.IsNaN(v) {
			res.SelfNs[layerNames[l]] = v
		}
	}
	var errs []error
	for _, in := range insts {
		if err := in.finish(); err != nil {
			errs = append(errs, err)
		}
	}
	insts = nil
	// The end-of-run drains are passes too, so this has samples even when
	// the workload never filled a retire list.
	m.set("core.pass_p50_us", own.coreStats().passP50Ns/1e3)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("%s: end-of-run check: %w", sp.name, err)
	}
	if res.TraceFile, err = writeTrace(opt.outDir, sp.name, append(recs, sideRecorders(sp, serveRecs)...)); err != nil {
		return nil, err
	}
	if err := paperRung(m, seed, opt); err != nil {
		return nil, err
	}

	cm := cal.median()
	m.set("bench.calib_cpu_ms", cm.cpuMs)
	m.set("bench.calib_mem_ms", cm.memMs)
	m.set("bench.disturbed_slices", float64(res.Reruns))
	res.Correct = res.Failed == 0
	return res, nil
}

// sideRecorders returns the side server's recorders renumbered after the
// workload's own, or nothing when the workload is the server.
func sideRecorders(sp spec, recs []*recorder) []*recorder {
	if sp.kind == kindServe {
		return nil
	}
	for _, r := range recs {
		r.worker += workers
	}
	return recs
}
