package hmlist

// Handoffs reports the retire-handoff balance: deferred counts unlink
// winners that found LINKING set and handed the retire to the inserter;
// adopted counts FinishLinking calls that observed RETIREREQ and
// performed the handed-off retire. At quiescence the two must be equal —
// every deferred retire was adopted by exactly one inserter.
func (l *List) Handoffs() (deferred, adopted int64) {
	return l.deferred.Load(), l.adopted.Load()
}
