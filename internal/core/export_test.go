package core

// PingPending reports whether a reclaimer's ping is waiting for t's next
// poll.
func PingPending(t *Thread) bool { return t.ping.Load() != 0 }

// NodesType reports the type id n registered with its domain.
func NodesType[T any](n *Nodes[T]) uint8 { return n.typ }

// NodesSlabs reports how many slabs n's pool has allocated.
func NodesSlabs[T any](n *Nodes[T]) int { return n.pool.Stats().Slabs }

// Epoch returns the current global era.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// MaxThreads returns the domain's thread capacity.
func (d *Domain) MaxThreads() int { return d.maxThreads }

// MemberLeased returns the handle's thread in member i if one has been
// leased, else nil, without leasing one.
func (h *GroupHandle) MemberLeased(i int) *Thread { return h.threads[i] }

// Retired reports whether the node is currently in some retire list.
func (h *Header) Retired() bool { return h.retiredFlag.Load() == 1 }

// RetireListLen returns the current retire-list length (owner only).
func (t *Thread) RetireListLen() int { return len(t.retired) }
