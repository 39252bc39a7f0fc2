package core

import (
	"time"

	"pop/internal/report"
)

// This file is the live-telemetry surface of the reclamation core: the
// race-safe mirrors and histograms that internal/telemetry samples
// mid-run. Everything here is off the read hot path — the only cost a
// data-structure operation ever pays is one branch per EndOp (the
// mirror cadence check) and, every statsPubEvery operations, ten plain
// atomic stores to owned cache lines.

// statsPubEvery is the operation cadence at which a thread republishes
// its stats mirror. Mid-run sampled stats therefore lag the owner-only
// truth by at most statsPubEvery operations per thread; Flush and
// Release republish unconditionally, so sampled stats are exact once a
// thread has flushed or departed.
const statsPubEvery = 256

// Indices into Thread.statsPub, one per Stats field.
const (
	mRetires = iota
	mFrees
	mReclaims
	mEpochReclaims
	mPOPReclaims
	mPingsSent
	mThreadsScanned
	mPublishes
	mRestarts
	mMaxRetire
	statsMirrorLen
)

// publishStats copies the owner-only stats counters into the thread's
// atomic mirror. Owner goroutine only. Fields are stored independently
// (no seqlock): each mirror word is individually monotone, which is the
// property interval deltas need; cross-field consistency is only
// claimed at quiescence.
func (t *Thread) publishStats() {
	m := &t.statsPub
	m[mRetires].Store(t.stats.Retires)
	m[mFrees].Store(t.stats.Frees)
	m[mReclaims].Store(t.stats.Reclaims)
	m[mEpochReclaims].Store(t.stats.EpochReclaims)
	m[mPOPReclaims].Store(t.stats.POPReclaims)
	m[mPingsSent].Store(t.stats.PingsSent)
	m[mThreadsScanned].Store(t.stats.ThreadsScanned)
	m[mPublishes].Store(t.stats.Publishes)
	m[mRestarts].Store(t.stats.Restarts)
	m[mMaxRetire].Store(uint64(t.maxRetire))
}

// sampledStats reads the thread's mirror back into a Stats value (the
// inverse of publishStats; any goroutine).
func (t *Thread) sampledStats() Stats {
	m := &t.statsPub
	return Stats{
		Retires:        m[mRetires].Load(),
		Frees:          m[mFrees].Load(),
		Reclaims:       m[mReclaims].Load(),
		EpochReclaims:  m[mEpochReclaims].Load(),
		POPReclaims:    m[mPOPReclaims].Load(),
		PingsSent:      m[mPingsSent].Load(),
		ThreadsScanned: m[mThreadsScanned].Load(),
		Publishes:      m[mPublishes].Load(),
		Restarts:       m[mRestarts].Load(),
		MaxRetire:      int(m[mMaxRetire].Load()),
	}
}

// StatsSampled aggregates the per-thread stats mirrors: the race-safe,
// any-goroutine counterpart of Stats. Mid-run it lags each live thread
// by at most statsPubEvery operations; after every thread has flushed
// or released it equals Stats exactly. Every mirror word is monotone,
// so successive StatsSampled snapshots delta cleanly per field.
func (d *Domain) StatsSampled() Stats {
	var agg Stats
	for _, t := range d.threadList() {
		agg.Add(t.sampledStats())
	}
	return agg
}

// ReclaimStatsSampled is the race-safe counterpart of ReclaimStats,
// derived from the stats mirrors.
func (d *Domain) ReclaimStatsSampled() ReclaimStats { return d.StatsSampled().reclaim() }

// StatsSampled aggregates the sampled stats across member domains (the
// group-level counterpart of Stats, race-safe mid-run).
func (g *DomainGroup) StatsSampled() Stats {
	var agg Stats
	for _, d := range g.members {
		agg.Add(d.StatsSampled())
	}
	return agg
}

// ReclaimStatsSampled is the race-safe group counterpart of
// ReclaimStats.
func (g *DomainGroup) ReclaimStatsSampled() ReclaimStats { return g.StatsSampled().reclaim() }

// ---------------------------------------------------------------------
// Ping-ack and pass-duration tracing
// ---------------------------------------------------------------------

// recordPingAck records one ping→all-acks wait (the broadcast-to-last-
// publish span of a POP or NBR pass). Called from pingAndWait, only on
// passes that actually pinged.
func (d *Domain) recordPingAck(start time.Time) {
	d.pingAckH.Record(int64(time.Since(start)))
}

// recordPass records one whole reclamation pass's duration (called
// from Thread.pass, the only place a pass runs). Passes are
// threshold-gated (thousands of retires apart), so the two time.Now
// calls per pass are noise; tracing is therefore always on.
func (d *Domain) recordPass(start time.Time) {
	d.passDurH.Record(int64(time.Since(start)))
}

// PingAckHist snapshots the domain's ping→ack latency distribution:
// one observation per reclamation pass that pinged, measuring broadcast
// to last publish (paper Assumption 1's "bounded time" made visible).
func (d *Domain) PingAckHist() report.Histogram { return d.pingAckH.Snapshot() }

// PassDurHist snapshots the domain's reclamation-pass duration
// distribution (one observation per pass, all policies).
func (d *Domain) PassDurHist() report.Histogram { return d.passDurH.Snapshot() }

// PingAckHist merges the ping-ack distributions of all members.
func (g *DomainGroup) PingAckHist() report.Histogram {
	var out report.Histogram
	for _, d := range g.members {
		h := d.pingAckH.Snapshot()
		out.Merge(&h)
	}
	return out
}

// PassDurHist merges the pass-duration distributions of all members.
func (g *DomainGroup) PassDurHist() report.Histogram {
	var out report.Histogram
	for _, d := range g.members {
		h := d.passDurH.Snapshot()
		out.Merge(&h)
	}
	return out
}

// ---------------------------------------------------------------------
// Slot probes (the stalled-reader detector's raw material)
// ---------------------------------------------------------------------

// SlotProbe is one thread slot's SWMR progress words, read atomically:
// everything an external watcher needs to decide whether the slot's
// tenant is advancing. The telemetry layer reads these on an interval
// and flags slots whose opSeq stays odd-and-unchanged (a reader parked
// inside an operation — the §5.1.2 stall) or whose pending ping goes
// unanswered across ticks.
type SlotProbe struct {
	Member      int    // member index within a group (0 for a lone domain)
	Slot        int    // dense slot id (Thread.ID)
	Incarnation uint64 // lease count: identifies the tenant being probed
	OpSeq       uint64 // odd = inside an operation
	PubCount    uint64 // publish/ack counter
	PingPending bool   // a reclaimer's ping is waiting to be answered
}

// Probes appends one SlotProbe per slot ever created to dst and returns
// it (append-style so interval samplers can reuse one backing array).
func (d *Domain) Probes(dst []SlotProbe) []SlotProbe {
	for _, t := range d.threadList() {
		dst = append(dst, SlotProbe{
			Slot:        t.tid,
			Incarnation: t.incarnation.Load(),
			OpSeq:       t.opSeq.Load(),
			PubCount:    t.pubCount.Load(),
			PingPending: t.ping.Load() != 0,
		})
	}
	return dst
}

// Probes appends every member's slot probes to dst, stamped with the
// member index.
func (g *DomainGroup) Probes(dst []SlotProbe) []SlotProbe {
	for mi, d := range g.members {
		base := len(dst)
		dst = d.Probes(dst)
		for i := base; i < len(dst); i++ {
			dst[i].Member = mi
		}
	}
	return dst
}
