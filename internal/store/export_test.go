package store

import (
	"pop/internal/arena"
	"pop/internal/core"
)

// Test-only exports for the external storm tests (package store_test),
// which live outside the package so they can import internal/chaos
// without a cycle (chaos imports store).

// RawHandle fetches the arena handle a key's map entry currently holds
// — the store-internal view a misbehaving reader would capture and sit
// on.
func (s *Store) RawHandle(h *core.GroupHandle, key string) (arena.Handle, bool) {
	si, ik := s.locate(key)
	hv, ok := s.shards[si].m.Get(s.threadFor(h, si), ik)
	return arena.Handle(hv), ok
}

// ReadRaw dereferences a captured handle directly against the value
// arena, bypassing the map — the unsafe access pattern the arena's
// sequence discipline must detect once the slot is retired.
func (s *Store) ReadRaw(h arena.Handle, buf []byte) ([]byte, bool) {
	return s.vals.Read(h, buf)
}

// ValueSlotsOutstanding reports live+retired value-arena slots — zero
// for a store whose every value is inline-encoded.
func (s *Store) ValueSlotsOutstanding() int64 {
	return s.vals.Outstanding()
}
