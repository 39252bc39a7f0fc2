package core_test

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"pop/internal/core"
)

// churn runs ops operations on h in every member envs covers, each
// retiring one fresh node, and never flushes.
func churn(envs []*env, h *core.GroupHandle, ops int) {
	var cell core.Atomic
	for i := 0; i < ops; i++ {
		for m, e := range envs {
			th := h.Member(m)
			th.StartOp()
			n := e.alloc(th, e.cacheFor(th), int64(i))
			cell.Store(unsafe.Pointer(n))
			cell.Store(nil)
			th.Retire(&n.Header)
			th.EndOp()
		}
	}
}

// groupEnvs builds one env per member of g.
func groupEnvs(g *core.DomainGroup) []*env {
	envs := make([]*env, g.Members())
	for m := range envs {
		envs[m] = newEnvOn(g.Member(m))
	}
	return envs
}

// TestStatsSampledExactAfterFlush: no flush is needed for exact stats.
// A second goroutine reading Domain.Stats, and DomainGroup.Stats over
// two members, right after the owner's last EndOp sees exactly what the
// stopped owner's StatsSnapshot reports — 300 operations, so a
// republish cadence of any power of two would show a lag.
func TestStatsSampledExactAfterFlush(t *testing.T) {
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			opts := &core.Options{ReclaimThreshold: 8, EpochFreq: 2, BatchSize: 4}
			g := core.NewDomainGroup(p, 2, 2, opts)
			envs := groupEnvs(g)
			h, err := g.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			lastEndOp := make(chan struct{})
			seen := make(chan [2]core.Stats)
			go func() {
				<-lastEndOp
				seen <- [2]core.Stats{g.Member(0).Stats(), g.Stats()}
			}()
			churn(envs, h, 300)
			close(lastEndOp)
			got := <-seen

			own := h.Member(0).StatsSnapshot()
			both := own
			both.Add(h.Member(1).StatsSnapshot())
			if p != core.NR && own.Reclaims == 0 {
				t.Fatalf("%v: no pass ran in 300 retires at threshold 8", p)
			}
			for _, c := range []struct {
				name      string
				got, want core.Stats
			}{{"Domain.Stats", got[0], own}, {"DomainGroup.Stats", got[1], both}} {
				if c.got != c.want {
					t.Errorf("%s read by another goroutine = %+v, owner reports %+v", c.name, c.got, c.want)
				}
			}
			g.Release(h)
		})
	}
}

// TestStatsSampledMonotoneMidRun: DomainGroup.Stats read in a loop while
// threads in both members retire and reclaim never goes backwards in
// any field (the property the sampler's interval deltas rely on), and
// the race detector sees every read as an atomic load.
func TestStatsSampledMonotoneMidRun(t *testing.T) {
	opts := &core.Options{ReclaimThreshold: 8, EpochFreq: 2, BatchSize: 4}
	g := core.NewDomainGroup(core.HazardPtrPOP, 2, 2, opts)
	envs := groupEnvs(g)

	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev core.Stats
		for {
			select {
			case <-done:
				return
			default:
			}
			s := g.Stats()
			if f := regressed(prev, s); f != "" {
				t.Errorf("Stats.%s regressed: %+v -> %+v", f, prev, s)
				return
			}
			prev = s
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		h, err := g.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			churn(envs, h, 2000)
			g.Release(h)
		}()
	}
	workers.Wait()
	close(done)
	reader.Wait()
	if s := g.Stats(); s.Retires != 2*2*2000 || s.Reclaims == 0 {
		t.Fatalf("after the run: %+v, want 8000 retires and some passes", s)
	}
}

// regressed names the first field of cur below its value in prev.
func regressed(prev, cur core.Stats) string {
	pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
	for i := 0; i < pv.NumField(); i++ {
		p, c := pv.Field(i), cv.Field(i)
		if (p.CanUint() && c.Uint() < p.Uint()) || (p.CanInt() && c.Int() < p.Int()) {
			return pv.Type().Field(i).Name
		}
	}
	return ""
}

// TestProbesShape: Probes reports one entry per created slot with the
// live incarnation, odd opSeq mid-op, and even opSeq at quiescence.
func TestProbesShape(t *testing.T) {
	opts := &core.Options{ReclaimThreshold: 64, EpochFreq: 2, BatchSize: 4}
	e := newEnv(t, core.HazardPtrPOP, 4, opts)
	a := e.d.RegisterThread()
	b := e.d.RegisterThread()

	a.StartOp()
	ps := e.d.Probes(nil)
	if len(ps) != 2 {
		t.Fatalf("Probes returned %d entries, want 2", len(ps))
	}
	byID := map[int]core.SlotProbe{}
	for _, p := range ps {
		byID[p.Slot] = p
	}
	pa, ok := byID[a.ID()]
	if !ok {
		t.Fatalf("no probe for slot %d", a.ID())
	}
	if pa.OpSeq%2 != 1 {
		t.Fatalf("mid-op slot has even OpSeq %d", pa.OpSeq)
	}
	if pa.Incarnation != a.Incarnation() {
		t.Fatalf("probe incarnation %d != thread %d", pa.Incarnation, a.Incarnation())
	}
	pb := byID[b.ID()]
	if pb.OpSeq%2 != 0 {
		t.Fatalf("quiescent slot has odd OpSeq %d", pb.OpSeq)
	}
	a.EndOp()
	ps = e.d.Probes(ps[:0])
	if len(ps) != 2 {
		t.Fatalf("reused Probes returned %d entries, want 2", len(ps))
	}
	for _, p := range ps {
		if p.OpSeq%2 != 0 {
			t.Fatalf("slot %d still odd after EndOp: %d", p.Slot, p.OpSeq)
		}
	}
	a.Release()
	b.Release()
}

// TestTraceHistograms: reclamation passes populate the pass-duration
// histogram for every policy, and the POP policies populate the
// ping-ack histogram when a second thread is parked mid-operation
// (forcing a real ping and a publish-side ack).
func TestTraceHistograms(t *testing.T) {
	for _, p := range core.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			opts := &core.Options{ReclaimThreshold: 4, EpochFreq: 2, BatchSize: 2, CMult: 2}
			e := newEnv(t, p, 2, opts)
			th := e.d.RegisterThread()
			cache := e.pool.NewCache()

			// Park a second tenant mid-operation so reclaimers have
			// someone to ping; Poll keeps it responsive.
			other := e.d.RegisterThread()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					other.StartOp()
					for i := 0; i < 32; i++ {
						other.Poll()
					}
					other.EndOp()
					select {
					case <-stop:
						return
					default:
					}
				}
			}()

			var cell core.Atomic
			for i := 0; i < 400; i++ {
				th.StartOp()
				n := e.alloc(th, cache, int64(i))
				cell.Store(unsafe.Pointer(n))
				cell.Store(nil)
				th.Retire(&n.Header)
				th.EndOp()
			}
			close(stop)
			wg.Wait()
			th.Flush()

			passH, ackH := e.d.PassDurHist(), e.d.PingAckHist()
			s := e.d.Stats()
			if s.Reclaims > 0 && passH.Count() == 0 {
				t.Fatalf("%d reclaim passes but PassDurHist empty", s.Reclaims)
			}
			if s.PingsSent > 0 && ackH.Count() == 0 {
				t.Fatalf("%d pings sent but PingAckHist empty", s.PingsSent)
			}
			if p != core.NR && passH.Count() == 0 {
				t.Fatal("no reclamation passes recorded in PassDurHist")
			}
			other.Flush()
			other.Release()
			th.Release()
		})
	}
}
