package core

import (
	"sync/atomic"
	"time"

	"pop/internal/report"
)

// This file is the live-telemetry surface of the reclamation core: the
// counters and histograms that internal/telemetry samples mid-run.
// Nothing here is written by StartOp, Protect or EndOp.

// counters is a thread's Stats as single-writer atomic words, one per
// field: the owner adds where the event happens — a retire, a pass and
// its EpochPOP mode, a ping broadcast, a slot walk, a publish, an NBR
// restart, a free — and any goroutine loads them, so Domain.Stats is
// exact and race-free mid-run. A Retire pays one uncontended add on a
// line only its owner writes; a pass pays a handful; maxRetire is
// stored only when the list outgrows it. Each word is monotone on its
// own, which is what interval deltas need; a snapshot of several words
// taken mid-run is not a cut across them.
type counters struct {
	retires, frees, reclaims, epochReclaims, popReclaims, pingsSent,
	threadsScanned, publishes, restarts, maxRetire atomic.Uint64
}

// load reads every word into a Stats value.
func (c *counters) load() Stats {
	return Stats{
		Retires:        c.retires.Load(),
		Frees:          c.frees.Load(),
		Reclaims:       c.reclaims.Load(),
		EpochReclaims:  c.epochReclaims.Load(),
		POPReclaims:    c.popReclaims.Load(),
		PingsSent:      c.pingsSent.Load(),
		ThreadsScanned: c.threadsScanned.Load(),
		Publishes:      c.publishes.Load(),
		Restarts:       c.restarts.Load(),
		MaxRetire:      int(c.maxRetire.Load()),
	}
}

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
