package telemetry_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pop/internal/arena"
	"pop/internal/core"
	"pop/internal/report"
	"pop/internal/telemetry"
)

// fakeSource is a hand-cranked CoreSource: tests mutate its fields
// between ticks to script exact counter and probe evolutions.
type fakeSource struct {
	stats  core.Stats
	lc     core.LifecycleStats
	unrec  int64
	ack    report.Histogram
	pass   report.Histogram
	probes []core.SlotProbe
}

func (f *fakeSource) Stats() core.Stats              { return f.stats }
func (f *fakeSource) Lifecycle() core.LifecycleStats { return f.lc }
func (f *fakeSource) Unreclaimed() int64             { return f.unrec }
func (f *fakeSource) PingAckHist() report.Histogram  { return f.ack }
func (f *fakeSource) PassDurHist() report.Histogram  { return f.pass }
func (f *fakeSource) Probes(dst []core.SlotProbe) []core.SlotProbe {
	return append(dst, f.probes...)
}

type fakeExtras struct{ gets, sets uint64 }

func (f *fakeExtras) ExtraNames() []string { return []string{"cmd_get", "cmd_set"} }
func (f *fakeExtras) ReadExtras(dst []uint64) []uint64 {
	return append(dst, f.gets, f.sets)
}

// TestTimelineTelescoping: Base + Σ sample deltas == Final, exactly,
// including after ring overflow folds samples into Base.
func TestTimelineTelescoping(t *testing.T) {
	f := &fakeSource{}
	ex := &fakeExtras{}
	var ops uint64
	s := telemetry.NewSampler(f, telemetry.Config{
		Capacity: 4, // tiny ring: force folds
		Ops:      func() uint64 { return ops },
		Extras:   ex,
	})
	f.stats = core.Stats{Retires: 100, Frees: 40, MaxRetire: 9}
	ops, ex.gets = 1000, 7
	s.Start()
	for i := 0; i < 12; i++ {
		f.stats.Retires += uint64(3 + i)
		f.stats.Frees += uint64(i)
		f.stats.Reclaims++
		f.stats.PingsSent += 2
		if i == 5 {
			f.stats.MaxRetire = 77
		}
		ops += uint64(10 * i)
		ex.gets += 5
		ex.sets++
		s.Tick()
	}
	tl := s.Stop()
	if tl == nil {
		t.Fatal("Stop returned nil after Start")
	}
	if tl.Dropped == 0 {
		t.Fatalf("12 ticks into a 4-slot ring dropped nothing")
	}
	if got := tl.SumDeltas(); got != tl.Final {
		t.Fatalf("telescoping broken: SumDeltas %+v != Final %+v", got, tl.Final)
	}
	if tl.Final != f.stats {
		t.Fatalf("Final %+v != source %+v", tl.Final, f.stats)
	}
	if tl.Final.MaxRetire != 77 {
		t.Fatalf("MaxRetire gauge lost: %d", tl.Final.MaxRetire)
	}
	// Ops and extras telescope too.
	var sumOps uint64
	sumEx := append([]uint64(nil), tl.BaseExtras...)
	for _, sm := range tl.Samples {
		sumOps += sm.Ops
		for i, v := range sm.Extras {
			sumEx[i] += v
		}
	}
	if tl.BaseOps+sumOps != tl.FinalOps {
		t.Fatalf("ops do not telescope: %d + %d != %d", tl.BaseOps, sumOps, tl.FinalOps)
	}
	if sumEx[0] != ex.gets || sumEx[1] != ex.sets {
		t.Fatalf("extras do not telescope: %v vs (%d,%d)", sumEx, ex.gets, ex.sets)
	}
}

// TestSnapshotMidRun: Snapshot is self-consistent without disturbing
// the sampler, and a later Stop is still exact.
func TestSnapshotMidRun(t *testing.T) {
	f := &fakeSource{}
	s := telemetry.NewSampler(f, telemetry.Config{})
	s.Start()
	f.stats.Retires = 50
	s.Tick()
	f.stats.Retires = 80 // un-ticked tail
	snap := s.Snapshot()
	if got := snap.SumDeltas(); got != snap.Final {
		t.Fatalf("snapshot not self-consistent: %+v != %+v", got, snap.Final)
	}
	if snap.Final.Retires != 80 {
		t.Fatalf("snapshot Final.Retires = %d, want 80", snap.Final.Retires)
	}
	f.stats.Retires = 95
	tl := s.Stop()
	if got := tl.SumDeltas(); got != tl.Final || tl.Final.Retires != 95 {
		t.Fatalf("post-snapshot Stop broken: sum %+v final %+v", got, tl.Final)
	}
}

// TestStallDetector scripts the §5.1.2 scenario against fake probes:
// an in-op slot that stops advancing is flagged, upgrades to no-ack
// when a ping goes unanswered, recovers when opSeq moves, and a new
// incarnation inherits nothing.
func TestStallDetector(t *testing.T) {
	f := &fakeSource{}
	s := telemetry.NewSampler(f, telemetry.Config{StallAfter: time.Nanosecond})
	f.probes = []core.SlotProbe{
		{Slot: 0, Incarnation: 1, OpSeq: 7, PubCount: 3},       // in-op, will stall
		{Slot: 1, Incarnation: 1, OpSeq: 4, PingPending: true}, // quiescent: stale ping word, must NOT stall
	}
	s.Start()
	s.Tick() // first sight: records state, nothing stalled yet
	if ev := s.Stalled(); len(ev) != 0 {
		t.Fatalf("stalled on first sight: %+v", ev)
	}
	time.Sleep(time.Millisecond)
	s.Tick() // unchanged past StallAfter: in-op stall
	ev := s.Stalled()
	if len(ev) != 1 || ev[0].Slot != 0 || ev[0].Kind != telemetry.StallInOp || ev[0].Recovered {
		t.Fatalf("want one open in-op stall on slot 0, got %+v", ev)
	}
	// A ping lands and goes unanswered: escalate to no-ack.
	f.probes[0].PingPending = true
	s.Tick()
	if ev = s.Stalled(); len(ev) != 1 || ev[0].Kind != telemetry.StallNoAck {
		t.Fatalf("want escalation to no-ack, got %+v", ev)
	}
	// The reader finally advances: episode closes as recovered.
	f.probes[0].OpSeq = 8
	f.probes[0].PingPending = false
	s.Tick()
	if ev = s.Stalled(); len(ev) != 1 || !ev[0].Recovered || ev[0].Age <= 0 {
		t.Fatalf("want recovered episode, got %+v", ev)
	}
	// Same slot, new tenant parked mid-op: fresh state, second episode.
	f.probes[0] = core.SlotProbe{Slot: 0, Incarnation: 2, OpSeq: 11}
	s.Tick()
	time.Sleep(time.Millisecond)
	s.Tick()
	ev = s.Stalled()
	if len(ev) != 2 || ev[1].Incarnation != 2 || ev[1].Recovered {
		t.Fatalf("want second open episode for incarnation 2, got %+v", ev)
	}
	tl := s.Stop()
	if len(tl.Stalls) != 2 || tl.Stalls[1].Age <= 0 {
		t.Fatalf("Stop did not close open episodes: %+v", tl.Stalls)
	}
}

// tnode mirrors the core test node: Header first.
type tnode struct {
	core.Header
	val int64
}

// TestSamplerOverRealDomain runs the ticker against a live domain under
// churn: samples accumulate, the telescoping invariant holds, and the
// whole-run histograms carry the core's pass observations.
func TestSamplerOverRealDomain(t *testing.T) {
	d := core.NewDomain(core.HazardPtrPOP, 2, &core.Options{ReclaimThreshold: 8, EpochFreq: 2, BatchSize: 4})
	pool := arena.NewPool[tnode](nil, nil)
	caches := make([]*arena.ThreadCache[tnode], 2)
	typ := d.RegisterType(func(th *core.Thread, h *core.Header) {
		c := caches[th.ID()]
		if c == nil {
			c = pool.NewCache()
			caches[th.ID()] = c
		}
		c.Put((*tnode)(unsafe.Pointer(h)))
	})

	var ops atomic.Uint64
	s := telemetry.NewSampler(d, telemetry.Config{
		Every: time.Millisecond,
		Ops:   ops.Load,
	})
	s.Start()

	th := d.RegisterThread()
	cache := pool.NewCache()
	var cell core.Atomic
	deadline := time.Now().Add(30 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		th.StartOp()
		n := cache.Get()
		n.val = int64(i)
		th.OnAlloc(&n.Header, typ)
		cell.Store(unsafe.Pointer(n))
		cell.Store(nil)
		th.Retire(&n.Header)
		th.EndOp()
		ops.Add(1)
		if i%512 == 0 {
			// A hot single-core mutator can starve the 1ms ticker;
			// manual ticks keep the sample count deterministic (Tick
			// is safe concurrently with the ticker).
			s.Tick()
		}
	}
	th.Flush()
	th.Release()
	tl := s.Stop()
	if len(tl.Samples) < 2 {
		t.Fatalf("30ms at 1ms ticks produced %d samples", len(tl.Samples))
	}
	if got := tl.SumDeltas(); got != tl.Final {
		t.Fatalf("telescoping broken on live domain: %+v != %+v", got, tl.Final)
	}
	if want := d.Stats(); tl.Final != want {
		t.Fatalf("post-release Final %+v != Stats %+v", tl.Final, want)
	}
	if tl.PassDur.Count() == 0 {
		t.Fatal("no pass durations in whole-run histogram")
	}
	if tl.FinalOps != ops.Load() {
		t.Fatalf("FinalOps %d != %d", tl.FinalOps, ops.Load())
	}
}

// TestResetRebases: after Reset the old deltas are gone and the
// invariant holds over the new base.
func TestResetRebases(t *testing.T) {
	f := &fakeSource{}
	s := telemetry.NewSampler(f, telemetry.Config{})
	s.Start()
	f.stats.Retires = 500
	s.Tick()
	s.Reset()
	f.stats.Retires = 600
	s.Tick()
	tl := s.Stop()
	if tl.Base.Retires != 500 {
		t.Fatalf("Reset base = %d, want 500", tl.Base.Retires)
	}
	if got := tl.SumDeltas(); got != tl.Final {
		t.Fatalf("telescoping broken after Reset: %+v != %+v", got, tl.Final)
	}
}

// TestHTTPEndpoints: /metrics scrapes advance between samples, and
// /timeline round-trips as JSON.
func TestHTTPEndpoints(t *testing.T) {
	f := &fakeSource{}
	f.stats = core.Stats{Retires: 11, Frees: 5}
	f.unrec = 6
	ex := &fakeExtras{gets: 2}
	s := telemetry.NewSampler(f, telemetry.Config{Extras: ex})
	s.Start()
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	m1 := scrape()
	for _, want := range []string{
		"pop_retires_total 11", "pop_frees_total 5", "pop_unreclaimed_nodes 6",
		"pop_cmd_get_total 2", "pop_ping_ack_seconds_count 0",
		"# TYPE pop_retires_total counter",
	} {
		if !strings.Contains(m1, want) {
			t.Fatalf("scrape missing %q:\n%s", want, m1)
		}
	}
	f.stats.Retires = 40
	ex.gets = 9
	m2 := scrape()
	if !strings.Contains(m2, "pop_retires_total 40") || !strings.Contains(m2, "pop_cmd_get_total 9") {
		t.Fatalf("second scrape did not advance:\n%s", m2)
	}

	resp, err := srv.Client().Get(srv.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tl telemetry.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatalf("timeline JSON: %v", err)
	}
	if tl.Final.Retires != 40 {
		t.Fatalf("timeline Final.Retires = %d, want 40", tl.Final.Retires)
	}
}
