package core

import "unsafe"

// algorithm is the per-policy behaviour behind a Thread's public API.
// One stateless instance per Domain; all mutable state lives on Thread.
//
// startOp, endOp and protect are reached only by threads tagged
// hotGeneric: the five tagged policies have those three written out in
// Thread.StartOp/EndOp/Protect and implement none of them here.
type algorithm interface {
	// initThread runs on every lease of a slot — first registration AND
	// re-lease after a Release. Implementations must tolerate
	// re-initialization of a reused slot: by then finishRelease has
	// drained the slot's retire list and sealed batches into the orphan
	// queue, so replacing per-slot state (as crystalline does with a
	// fresh batchState) discards nothing.
	initThread(t *Thread)
	// startOp runs at operation start (after opSeq goes odd).
	startOp(t *Thread)
	// endOp runs at operation end (before local slots are cleared and
	// opSeq goes even); it releases any policy-specific announcements.
	endOp(t *Thread)
	// protect implements Thread.Protect.
	protect(t *Thread, slot int, a *Atomic) (unsafe.Pointer, bool)
	// retireHook runs after a node is appended to the retire list.
	// baseAlgo's is the shared threshold gate; NR leaks instead and
	// Crystalline seals a batch ahead of the gate.
	retireHook(t *Thread)
	// allocHook runs on every allocation (IBR's epoch cadence).
	allocHook(t *Thread)
	// poll is a reclamation safepoint outside Protect.
	poll(t *Thread)
	// enterWrite / exitWrite bracket an NBR write phase.
	enterWrite(t *Thread) bool
	exitWrite(t *Thread)
	// reclaim is the policy's body of a reclamation pass — its pre-step,
	// what it gathers from the other slots, and the sweep under its keep
	// rule. Thread.pass owns everything around it and explains final.
	reclaim(t *Thread, final bool)
}

// baseAlgo supplies the defaults every policy starts from: no-ops (NR
// alone keeps reclaim's, and Thread.pass never calls it) and the shared
// threshold gate.
type baseAlgo struct{ d *Domain }

func (baseAlgo) initThread(*Thread) {}
func (baseAlgo) startOp(*Thread)    {}
func (baseAlgo) endOp(*Thread)      {}
func (baseAlgo) allocHook(*Thread)  {}
func (baseAlgo) poll(*Thread)       {}
func (b baseAlgo) enterWrite(*Thread) bool {
	return true
}
func (baseAlgo) exitWrite(*Thread)     {}
func (baseAlgo) reclaim(*Thread, bool) {}

// protect has no default: a policy either overrides it or is tagged, and
// a tagged thread's Protect returns before the interface.
func (baseAlgo) protect(*Thread, int, *Atomic) (unsafe.Pointer, bool) {
	panic("core: Protect reached the algorithm interface under a tagged policy")
}

// retireHook is the shared threshold gate: one pass per
// ReclaimThreshold retires.
func (b baseAlgo) retireHook(t *Thread) {
	if t.sinceReclaim >= b.d.opts.ReclaimThreshold {
		t.pass(false)
	}
}

// newAlgorithm wires a policy to its implementation and to the tag its
// threads lease with (hotGeneric: the per-read side is the algorithm's).
func newAlgorithm(d *Domain, p Policy) (algorithm, hotTag) {
	b := baseAlgo{d: d}
	switch p {
	case NR:
		return &nrAlgo{baseAlgo: b}, hotNR
	case HP:
		return &hpAlgo{baseAlgo: b}, hotHP
	case HPAsym:
		return &hpAsymAlgo{baseAlgo: b}, hotGeneric
	case HE:
		return &heAlgo{baseAlgo: b}, hotGeneric
	case EBR:
		return &ebrAlgo{baseAlgo: b}, hotEBR
	case IBR:
		return &ibrAlgo{baseAlgo: b}, hotGeneric
	case NBR:
		return &nbrAlgo{baseAlgo: b}, hotGeneric
	case HazardPtrPOP:
		return &hpPOPAlgo{baseAlgo: b}, hotHPPOP
	case HazardEraPOP:
		return &hePOPAlgo{baseAlgo: b}, hotGeneric
	case EpochPOP:
		return &epochPOPAlgo{baseAlgo: b, ebr: ebrAlgo{b}, pop: hpPOPAlgo{b}}, hotEpochPOP
	case Crystalline:
		return &crystAlgo{ibrAlgo{b}}, hotGeneric
	default:
		panic("core: unknown policy " + p.String())
	}
}
