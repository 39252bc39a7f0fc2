package chaos

import (
	"fmt"

	"pop/internal/core"
	"pop/internal/store"
	"pop/internal/telemetry"
	"pop/internal/workload"
)

// A Violation is one failed invariant: a stable invariant name plus a
// human-readable detail. Storms report every violation, not just the
// first, so one broken run paints the whole picture.
type Violation struct {
	Invariant string // "value-checksum", "value-errors", "drain", "counters", "lifecycle", "balance"
	Detail    string
}

// String renders the violation as "invariant: detail".
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Invariants checks the contracts every run must uphold regardless of
// schedule: values verify, retired memory drains, reclamation counters
// stay sane, thread-slot leases balance, and allocation balances
// frees. Policy selects the per-policy exemptions (NR never frees by
// design). Every check here has a seeded-violation test in this
// package proving it fires on the fault it claims to detect.
type Invariants struct {
	Policy core.Policy
}

// violate appends a formatted violation.
func violate(vs []Violation, invariant, format string, args ...any) []Violation {
	return append(vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// CheckValues walks keys through the store and verifies every present
// value against its key's checksum ("value-checksum"): a stale, torn
// or cross-key value — the value-plane symptom of a use-after-free —
// fails. The walk runs on h as an ordinary reader.
func (iv Invariants) CheckValues(h *core.GroupHandle, s *store.Store, keys []string) []Violation {
	var vs []Violation
	var buf []byte
	bad := 0
	for _, k := range keys {
		v, ok := s.Get(h, k, buf)
		if !ok {
			continue
		}
		buf = v
		if !workload.ValueBytesValid(store.KeyHash(k), v) {
			bad++
			if bad <= 3 { // name the first few, count the rest
				vs = violate(vs, "value-checksum", "key %q served a value failing its checksum (%d bytes)", k, len(v))
			}
		}
	}
	if bad > 3 {
		vs = violate(vs, "value-checksum", "%d keys total served checksum-failing values", bad)
	}
	return vs
}

// CheckValueErrors asserts a run's accumulated checksum-failure count
// is zero ("value-errors") — the counter form of CheckValues, for
// harnesses that verify inline.
func (iv Invariants) CheckValueErrors(n uint64) []Violation {
	if n == 0 {
		return nil
	}
	return violate(nil, "value-errors", "%d served values failed their checksums (want 0)", n)
}

// CheckLeaked asserts the post-flush unreclaimed count is zero
// ("drain"): once every thread has flushed quiescently, no policy but
// NR may still hold retired memory.
func (iv Invariants) CheckLeaked(unreclaimed int64) []Violation {
	if iv.Policy == core.NR || unreclaimed == 0 {
		return nil
	}
	return violate(nil, "drain", "%d nodes retired but unreclaimed after quiescent flush (want 0)", unreclaimed)
}

// CheckDrained is CheckLeaked against a live counter — a
// *core.DomainGroup (the sum over its members; a flat domain is a group
// of one) or a single *core.Domain.
func (iv Invariants) CheckDrained(d interface{ Unreclaimed() int64 }) []Violation {
	return iv.CheckLeaked(d.Unreclaimed())
}

// CheckCounters sanity-checks the reclamation counters ("counters"):
// frees never exceed retires, NR never frees, and a run that retired
// plenty must have freed something (reclamation progress).
func (iv Invariants) CheckCounters(st core.Stats) []Violation {
	var vs []Violation
	if st.Frees > st.Retires {
		vs = violate(vs, "counters", "freed %d nodes but only %d were retired", st.Frees, st.Retires)
	}
	if iv.Policy == core.NR {
		if st.Frees != 0 {
			vs = violate(vs, "counters", "NR freed %d nodes; NR must never free", st.Frees)
		}
		return vs
	}
	if st.Retires > 1000 && st.Frees == 0 {
		vs = violate(vs, "counters", "retired %d nodes and freed none: no reclamation progress", st.Retires)
	}
	return vs
}

// CheckLifecycle asserts the thread-slot ledger balances
// ("lifecycle"): exactly wantLeased slots remain leased, no orphaned
// retires are still awaiting adoption, and every donated orphan was
// adopted. Call it after the run's threads have flushed (a flush
// adopts pending orphans).
func (iv Invariants) CheckLifecycle(lc core.LifecycleStats, wantLeased int) []Violation {
	var vs []Violation
	if lc.Leased != wantLeased {
		vs = violate(vs, "lifecycle", "%d slots still leased, want %d (leaked or double-released handle)", lc.Leased, wantLeased)
	}
	if lc.OrphanNodes != 0 {
		vs = violate(vs, "lifecycle", "%d orphaned retires still awaiting adoption after flush", lc.OrphanNodes)
	}
	if lc.OrphansAdopted > lc.OrphansDonated {
		vs = violate(vs, "lifecycle", "adopted %d orphans but only %d were donated", lc.OrphansAdopted, lc.OrphansDonated)
	}
	if lc.Peak > lc.Slots {
		vs = violate(vs, "lifecycle", "peak leases %d exceed slot count %d", lc.Peak, lc.Slots)
	}
	return vs
}

// CheckBalance asserts allocation balances reclamation ("balance"):
// after a quiescent flush, the structure's outstanding allocation
// count must equal what is still reachable. outstanding is the
// alloc-minus-free ledger (e.g. skiplist.Outstanding, Store.
// Outstanding); live is the reachable population (e.g. Size). NR is
// exempt: it leaks by design.
func (iv Invariants) CheckBalance(outstanding, live int64) []Violation {
	if iv.Policy == core.NR || outstanding == live {
		return nil
	}
	return violate(nil, "balance", "%d allocations outstanding after flush, want exactly the %d live (leak or double-free)", outstanding, live)
}

// CheckTimeline asserts a sampled run's timeline telescopes
// ("timeline"): the base snapshot plus every sample's deltas must
// reproduce the final snapshot exactly — a sampler that lost or
// double-counted a window would misnarrate the very run it claims to
// explain. Ops telescope the same way, and stall episodes must be
// well-formed (a recovered episode has a positive age). A nil timeline
// (sampling off) passes vacuously.
func (iv Invariants) CheckTimeline(tl *telemetry.Timeline) []Violation {
	if tl == nil {
		return nil
	}
	var vs []Violation
	if sum := tl.SumDeltas(); sum != tl.Final {
		vs = violate(vs, "timeline", "base+deltas %+v diverge from final snapshot %+v (lost or double-counted sample window)", sum, tl.Final)
	}
	ops := tl.BaseOps
	for i := range tl.Samples {
		ops += tl.Samples[i].Ops
	}
	if ops != tl.FinalOps {
		vs = violate(vs, "timeline", "base+delta ops %d diverge from final op count %d", ops, tl.FinalOps)
	}
	if tl.Dropped < 0 {
		vs = violate(vs, "timeline", "negative dropped-sample count %d", tl.Dropped)
	}
	for _, ev := range tl.Stalls {
		if ev.Recovered && ev.Age <= 0 {
			vs = violate(vs, "timeline", "recovered stall episode m%d.s%d has non-positive age %v", ev.Member, ev.Slot, ev.Age)
		}
	}
	return vs
}

// Errs renders violations as a single multi-line error (nil if none) —
// for callers outside the testing package, like popstress.
func Errs(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	msg := ""
	for i, v := range vs {
		if i > 0 {
			msg += "\n"
		}
		msg += v.String()
	}
	return fmt.Errorf("%s", msg)
}
