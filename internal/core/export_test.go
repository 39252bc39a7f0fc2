package core

// PingPending reports whether a reclaimer's ping is waiting for t's next
// poll.
func PingPending(t *Thread) bool { return t.ping.Load() != 0 }

// NodesType reports the type id n registered with its domain.
func NodesType[T any](n *Nodes[T]) uint8 { return n.typ }

// NodesSlabs reports how many slabs n's pool has allocated.
func NodesSlabs[T any](n *Nodes[T]) int { return n.pool.Stats().Slabs }
