package core

// PingPending reports whether a reclaimer's ping is waiting for t's next
// poll.
func PingPending(t *Thread) bool { return t.ping.Load() != 0 }
