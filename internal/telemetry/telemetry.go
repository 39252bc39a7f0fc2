// Package telemetry is the live observability layer over the
// reclamation core: an interval sampler that turns the core's race-safe
// words (the per-thread counters behind Stats, Unreclaimed, the ping-ack
// / pass-duration histograms, and SlotProbe progress words) into a
// Timeline of per-window deltas, plus a stalled-reader detector that
// surfaces the paper's §5.1.2 scenario — a reader parked inside an
// operation, or one sitting on an unanswered ping — as it happens rather
// than post-mortem. Stats is the same fold the harness reports after a
// run and the server's stats reply and /metrics print.
//
// The sampler owns one goroutine. A tick is a fixed number of atomic
// loads and ring-buffer stores plus a few small allocations: the
// Sample's Extras slice (when an ExtrasSource is attached), the group's
// SlotLeases vector that Lifecycle builds, and a StallEvent on stall
// onset. Sampling at 100ms is invisible next to the workload it
// watches (the acceptance bound is ≤2% at 10ms-class intervals).
package telemetry

import (
	"sync"
	"time"

	"pop/internal/core"
	"pop/internal/report"
)

// CoreSource is the read side the reclamation core exposes. A
// *core.DomainGroup satisfies it by folding its members — what every
// runner and the server hand in, a flat domain being a group of one —
// and a *core.Domain satisfies it for itself (one member's view).
type CoreSource interface {
	Stats() core.Stats
	Lifecycle() core.LifecycleStats
	Unreclaimed() int64
	PingAckHist() report.Histogram
	PassDurHist() report.Histogram
	Probes(dst []core.SlotProbe) []core.SlotProbe
}

// ExtrasSource lets a host (store, server) contribute extra monotone
// counters to every sample without telemetry importing its package.
// ExtraNames is called once at Start; ReadExtras is called every tick
// and must append current cumulative values for the same names, in the
// same order.
type ExtrasSource interface {
	ExtraNames() []string
	ReadExtras(dst []uint64) []uint64
}

// Config parameterizes a Sampler.
type Config struct {
	// Every is the sampling interval. Zero disables the ticker (the
	// sampler then only records the base and final snapshots, and Tick
	// can be driven manually in tests).
	Every time.Duration
	// Capacity bounds the sample ring. When full, the oldest sample's
	// deltas fold into Base (telescoping is preserved; Dropped counts
	// the folds). Default 512.
	Capacity int
	// StallAfter is how long a slot may sit inside one operation (odd,
	// unchanged opSeq) — or on an unanswered ping — before it is flagged
	// stalled. Default 50ms. Detection resolution is Every.
	StallAfter time.Duration
	// Ops, if set, reads the host's cumulative completed-operation
	// count (for throughput deltas).
	Ops func() uint64
	// Extras, if set, contributes host counters to every sample.
	Extras ExtrasSource
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 50 * time.Millisecond
	}
	return c
}

// Sample is one interval's deltas (not cumulative totals): what
// happened between the previous tick and this one.
type Sample struct {
	At    float64    `json:"at_ms"` // ms since Start
	Ops   uint64     `json:"ops,omitempty"`
	Stats core.Stats `json:"stats"` // per-field deltas; MaxRetire is the cumulative high-water gauge
	// Gauges (instantaneous, not deltas):
	Unreclaimed int64 `json:"unreclaimed"`
	Leased      int   `json:"leased"`
	Stalled     int   `json:"stalled"` // slots stalled as of this tick
	// Per-window latency quantiles, microseconds (0 when the window saw
	// no passes/pings):
	PingAckP99 float64  `json:"ping_ack_p99_us"`
	PassP99    float64  `json:"pass_p99_us"`
	Extras     []uint64 `json:"extras,omitempty"` // deltas, aligned with Timeline.ExtraNames
}

// StallKind classifies a stalled slot.
type StallKind string

const (
	// StallInOp: the slot's opSeq has been odd and unchanged past
	// StallAfter — a reader parked inside an operation (it may still be
	// answering pings; EBR-style readers have nothing to answer).
	StallInOp StallKind = "in-op"
	// StallNoAck: in-op and sitting on a pending ping without having
	// advanced pubCount — the reclaimer-blocking variant (for
	// publish-on-ping policies only the publish path clears it).
	StallNoAck StallKind = "no-ack"
)

// StallEvent is one stalled-reader episode: a (member, slot,
// incarnation) tenant that stopped advancing, when it was first seen
// stalled, how long the episode lasted, and whether it recovered before
// the run ended.
type StallEvent struct {
	Member      int           `json:"member"`
	Slot        int           `json:"slot"`
	Incarnation uint64        `json:"incarnation"`
	Kind        StallKind     `json:"kind"`
	Start       float64       `json:"start_ms"` // ms since sampler Start
	Age         time.Duration `json:"age_ns"`   // episode duration so far (final if Recovered)
	Recovered   bool          `json:"recovered"`
}

// Timeline is a completed (or in-flight, via Snapshot) sampling run.
// Invariant: Base + the per-field sum of every Sample's Stats deltas
// == Final, exactly — regardless of ring folds or when ticks landed —
// because base, samples, and final are all CoreSource.Stats loads of
// the same monotone counter words. Final is that load at Stop, so it
// equals CoreSource.Stats whenever nothing has retired or reclaimed
// since — no flush or release has to come first.
// chaos.Invariants.CheckTimeline asserts it on every popstress -store
// trial.
type Timeline struct {
	Every      time.Duration `json:"every_ns"`
	Base       core.Stats    `json:"base"` // cumulative snapshot at Start (plus any folded samples)
	BaseOps    uint64        `json:"base_ops,omitempty"`
	ExtraNames []string      `json:"extra_names,omitempty"`
	BaseExtras []uint64      `json:"base_extras,omitempty"`
	Samples    []Sample      `json:"samples"`
	Final      core.Stats    `json:"final"` // cumulative snapshot at Stop/Snapshot
	FinalOps   uint64        `json:"final_ops,omitempty"`
	FinalUnrec int64         `json:"final_unreclaimed"`
	Dropped    int           `json:"dropped,omitempty"` // samples folded into Base on ring overflow
	Stalls     []StallEvent  `json:"stalls,omitempty"`
	// Whole-run latency distributions (cumulative, not per-window).
	PingAck report.Histogram `json:"-"`
	PassDur report.Histogram `json:"-"`
}

// SumDeltas returns Base plus every sample's Stats deltas: by the
// telescoping invariant this equals Final. MaxRetire, a gauge, is the
// max over Base and all samples.
func (tl *Timeline) SumDeltas() core.Stats {
	s := tl.Base
	for i := range tl.Samples {
		s.Add(tl.Samples[i].Stats)
	}
	return s
}

// slotKey identifies a probed slot across ticks.
type slotKey struct {
	member, slot int
}

// slotState is the detector's per-slot memory between ticks.
type slotState struct {
	incarnation uint64
	opSeq       uint64
	pubCount    uint64
	since       time.Time // when this opSeq was first observed (odd only)
	eventIdx    int       // index+1 into timeline.Stalls while stalled; 0 = not stalled
}

// Sampler drives interval sampling over one CoreSource. All methods
// are safe for concurrent use; the hot path belongs to the tick
// goroutine and touches only the sampler's own state plus the source's
// atomic words.
type Sampler struct {
	src CoreSource
	cfg Config

	mu      sync.Mutex
	started time.Time
	running bool
	stop    chan struct{}
	done    chan struct{}

	// Previous cumulative snapshots (tick-to-tick delta bases).
	prevStats  core.Stats
	prevOps    uint64
	prevAck    report.Histogram
	prevPass   report.Histogram
	prevExtras []uint64
	curExtras  []uint64

	// Ring of samples.
	ring    []Sample
	head    int // index of oldest sample
	n       int // samples in ring
	dropped int

	// Stall detector state.
	slots  map[slotKey]slotState
	probes []core.SlotProbe
	stalls []StallEvent

	base       core.Stats
	baseOps    uint64
	baseExtras []uint64
	extraNames []string
}

// NewSampler builds a sampler over src. Call Start to begin.
func NewSampler(src CoreSource, cfg Config) *Sampler {
	return &Sampler{src: src, cfg: cfg.withDefaults()}
}

// Start records the base snapshot and, if cfg.Every > 0, launches the
// tick goroutine. Starting a running sampler is a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.started = time.Now()
	s.rebaseLocked()
	s.ring = make([]Sample, s.cfg.Capacity)
	s.head, s.n, s.dropped = 0, 0, 0
	s.slots = make(map[slotKey]slotState)
	s.stalls = nil
	if s.cfg.Extras != nil {
		s.extraNames = s.cfg.Extras.ExtraNames()
	}
	if s.cfg.Every > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.loop(s.stop, s.done)
	}
}

// rebaseLocked re-reads the cumulative snapshots as the new base.
func (s *Sampler) rebaseLocked() {
	s.base = s.src.Stats()
	s.prevStats = s.base
	if s.cfg.Ops != nil {
		s.baseOps = s.cfg.Ops()
		s.prevOps = s.baseOps
	}
	s.prevAck = s.src.PingAckHist()
	s.prevPass = s.src.PassDurHist()
	if s.cfg.Extras != nil {
		s.baseExtras = s.cfg.Extras.ReadExtras(nil)
		s.prevExtras = append([]uint64(nil), s.baseExtras...)
	}
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	tk := time.NewTicker(s.cfg.Every)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			s.Tick()
		}
	}
}

// Tick takes one sample now. Normally driven by the internal ticker;
// exported so tests (and Every==0 users) can drive sampling manually.
func (s *Sampler) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	now := time.Now()
	cur := s.src.Stats()
	ack := s.src.PingAckHist()
	pass := s.src.PassDurHist()
	lc := s.src.Lifecycle()

	sm := Sample{
		At:          float64(now.Sub(s.started)) / float64(time.Millisecond),
		Stats:       cur.Sub(s.prevStats),
		Unreclaimed: s.src.Unreclaimed(),
		Leased:      lc.Leased,
	}
	if s.cfg.Ops != nil {
		o := s.cfg.Ops()
		sm.Ops = o - s.prevOps
		s.prevOps = o
	}
	if w := ack.Sub(&s.prevAck); w.Count() > 0 {
		sm.PingAckP99 = w.Quantile(0.99) / 1e3
	}
	if w := pass.Sub(&s.prevPass); w.Count() > 0 {
		sm.PassP99 = w.Quantile(0.99) / 1e3
	}
	if s.cfg.Extras != nil {
		s.curExtras = s.cfg.Extras.ReadExtras(s.curExtras[:0])
		sm.Extras = make([]uint64, len(s.curExtras))
		for i, v := range s.curExtras {
			var p uint64
			if i < len(s.prevExtras) {
				p = s.prevExtras[i]
			}
			sm.Extras[i] = v - p
		}
		s.prevExtras = append(s.prevExtras[:0], s.curExtras...)
	}
	sm.Stalled = s.scanStallsLocked(now)

	s.prevStats = cur
	s.prevAck = ack
	s.prevPass = pass
	s.pushLocked(sm)
}

// pushLocked appends sm to the ring, folding the oldest sample into
// Base when full so the telescoping invariant survives overflow.
func (s *Sampler) pushLocked(sm Sample) {
	if s.n == len(s.ring) {
		old := &s.ring[s.head]
		s.base.Add(old.Stats)
		if len(old.Extras) == len(s.baseExtras) {
			for i, v := range old.Extras {
				s.baseExtras[i] += v
			}
		}
		s.baseOps += old.Ops
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
	}
	s.ring[(s.head+s.n)%len(s.ring)] = sm
	s.n++
}

// scanStallsLocked runs the stalled-reader detector over the current
// slot probes; returns the number of slots stalled right now.
//
// Only an odd (in-operation) opSeq can stall: a quiescent slot is by
// definition not blocking anyone, even if a stale ping word is parked
// on it (NBR pings every slot; quiescent tenants ack lazily at next
// StartOp). An episode upgrades from in-op to no-ack when a pending
// ping coexists with an unmoved pubCount. Incarnation changes reset
// the state — a new tenant inherits nothing from the old one.
func (s *Sampler) scanStallsLocked(now time.Time) int {
	s.probes = s.src.Probes(s.probes[:0])
	stalled := 0
	for _, p := range s.probes {
		k := slotKey{p.Member, p.Slot}
		st, seen := s.slots[k]
		fresh := !seen || st.incarnation != p.Incarnation || st.opSeq != p.OpSeq
		if fresh {
			// New tenant or progress: close any open episode.
			if st.eventIdx != 0 {
				ev := &s.stalls[st.eventIdx-1]
				ev.Recovered = true
				ev.Age = now.Sub(st.since)
			}
			st = slotState{incarnation: p.Incarnation, opSeq: p.OpSeq, pubCount: p.PubCount, since: now}
		}
		if p.OpSeq%2 == 1 && !fresh && now.Sub(st.since) > s.cfg.StallAfter {
			kind := StallInOp
			if p.PingPending && p.PubCount == st.pubCount {
				kind = StallNoAck
			}
			if st.eventIdx == 0 {
				s.stalls = append(s.stalls, StallEvent{
					Member:      p.Member,
					Slot:        p.Slot,
					Incarnation: p.Incarnation,
					Kind:        kind,
					Start:       float64(st.since.Sub(s.started)) / float64(time.Millisecond),
				})
				st.eventIdx = len(s.stalls)
			}
			ev := &s.stalls[st.eventIdx-1]
			ev.Age = now.Sub(st.since)
			if kind == StallNoAck {
				ev.Kind = StallNoAck // an episode can only escalate
			}
			stalled++
		}
		s.slots[k] = st
	}
	return stalled
}

// snapshotLocked assembles a Timeline from current state.
func (s *Sampler) snapshotLocked() Timeline {
	tl := Timeline{
		Every:      s.cfg.Every,
		Base:       s.base,
		BaseOps:    s.baseOps,
		ExtraNames: append([]string(nil), s.extraNames...),
		BaseExtras: append([]uint64(nil), s.baseExtras...),
		Final:      s.src.Stats(),
		FinalUnrec: s.src.Unreclaimed(),
		Dropped:    s.dropped,
		Stalls:     append([]StallEvent(nil), s.stalls...),
		PingAck:    s.src.PingAckHist(),
		PassDur:    s.src.PassDurHist(),
	}
	if s.cfg.Ops != nil {
		tl.FinalOps = s.cfg.Ops()
	}
	tl.Samples = make([]Sample, s.n)
	for i := 0; i < s.n; i++ {
		tl.Samples[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	// Final must equal Base + Σ deltas: fold the not-yet-sampled tail
	// (everything since the last tick) into one closing sample so the
	// invariant holds however the ticker landed.
	tail := tl.Final.Sub(s.prevStats)
	if tail != (core.Stats{MaxRetire: tail.MaxRetire}) || s.n == 0 {
		closing := Sample{
			At:          float64(time.Since(s.started)) / float64(time.Millisecond),
			Stats:       tail,
			Unreclaimed: tl.FinalUnrec,
		}
		if s.cfg.Ops != nil {
			closing.Ops = tl.FinalOps - s.prevOps
		}
		tl.Samples = append(tl.Samples, closing)
	}
	return tl
}

// Snapshot returns the timeline so far without stopping the sampler.
// The closing partial sample makes the snapshot self-consistent
// (Base + Σ deltas == Final); the sampler's own state is unchanged.
func (s *Sampler) Snapshot() Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// Stop halts the ticker and returns the final timeline. Idempotent;
// returns nil if never started.
func (s *Sampler) Stop() *Timeline {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return nil
	}
	if s.stop != nil {
		close(s.stop)
		done := s.done
		s.stop, s.done = nil, nil
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
	// Close any still-open stall episodes at their final age.
	now := time.Now()
	for _, st := range s.slots {
		if st.eventIdx != 0 {
			ev := &s.stalls[st.eventIdx-1]
			ev.Age = now.Sub(st.since)
		}
	}
	tl := s.snapshotLocked()
	s.running = false
	s.mu.Unlock()
	return &tl
}

// Reset rebases the sampler in place: samples, stalls, and folds are
// discarded and the current cumulative snapshots become the new Base.
// Backs popserve's "stats reset".
func (s *Sampler) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.started = time.Now()
	s.rebaseLocked()
	s.head, s.n, s.dropped = 0, 0, 0
	s.slots = make(map[slotKey]slotState)
	s.stalls = nil
}
