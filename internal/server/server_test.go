package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/store"
)

// testClient is a minimal memcached-text client for driving a live
// server over loopback TCP.
type testClient struct {
	t  *testing.T
	nc net.Conn
	r  *bufio.Reader
}

func dialServer(t *testing.T, s *Server) *testClient {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &testClient{t: t, nc: nc, r: bufio.NewReader(nc)}
}

func (c *testClient) close() { c.nc.Close() }

func (c *testClient) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatalf("send %q: %v", s, err)
	}
}

func (c *testClient) line() string {
	c.t.Helper()
	l, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(l, "\r\n")
}

// set stores key=val and checks the reply.
func (c *testClient) set(key, val string) {
	c.t.Helper()
	c.send(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val))
	if got := c.line(); got != "STORED" {
		c.t.Fatalf("set %s: got %q, want STORED", key, got)
	}
}

// get fetches the keys and returns the VALUE blocks as a map.
func (c *testClient) get(keys ...string) map[string]string {
	c.t.Helper()
	c.send("get " + strings.Join(keys, " ") + "\r\n")
	return c.readValues()
}

func (c *testClient) readValues() map[string]string {
	c.t.Helper()
	out := map[string]string{}
	for {
		l := c.line()
		if l == "END" {
			return out
		}
		f := strings.Fields(l)
		if len(f) < 4 || f[0] != "VALUE" {
			c.t.Fatalf("unexpected get reply line %q", l)
		}
		n, err := strconv.Atoi(f[3])
		if err != nil {
			c.t.Fatalf("bad bytes in %q", l)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			c.t.Fatalf("read payload: %v", err)
		}
		out[f[1]] = string(buf[:n])
	}
}

// stats issues "stats [arg]" and returns the STAT map.
func (c *testClient) stats(arg string) map[string]string {
	c.t.Helper()
	cmd := "stats"
	if arg != "" {
		cmd += " " + arg
	}
	c.send(cmd + "\r\n")
	out := map[string]string{}
	for {
		l := c.line()
		if l == "END" {
			return out
		}
		f := strings.SplitN(l, " ", 3)
		if len(f) != 3 || f[0] != "STAT" {
			c.t.Fatalf("unexpected stats line %q", l)
		}
		out[f[1]] = f[2]
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

// closeClean shuts the server down and asserts, through the shared
// chaos invariant checker, that shutdown drained cleanly: a checker
// thread adopts whatever the departing coalescers and connections
// donated, then the lease ledger and retire lists must balance.
func closeClean(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h, err := s.Group().Acquire()
	if err != nil {
		t.Fatalf("post-close checker lease: %v", err)
	}
	// A few drains adopt donated orphans in every member and reclaim
	// them (a policy may free at most a batch per pass).
	for i := 0; i < 3 && s.Group().Unreclaimed() != 0; i++ {
		h.Drain()
	}
	iv := chaos.Invariants{Policy: s.Group().Policy()}
	var vs []chaos.Violation
	vs = append(vs, iv.CheckDrained(s.Group())...)
	// The drain leased the checker into every member it flushed; allow
	// either footprint (no drain needed = zero member leases).
	lc := s.Group().Lifecycle()
	if lc.Leased != 0 && lc.Leased != s.Group().Members() {
		t.Errorf("post-close leases = %d, want 0 or %d", lc.Leased, s.Group().Members())
	}
	lc.Leased = 0
	vs = append(vs, iv.CheckLifecycle(lc, 0)...)
	for _, v := range vs {
		t.Errorf("invariant violated after Close: %s", v)
	}
	s.Group().Release(h)
}

// TestServerProtocolE2E drives the full command surface over a real TCP
// connection against one live server.
func TestServerProtocolE2E(t *testing.T) {
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 2, MaxValueLen: 64},
	})
	defer closeClean(t, s)
	c := dialServer(t, s)
	defer c.close()

	c.set("alpha", "one")
	c.set("beta", "two two")

	if got := c.get("alpha"); got["alpha"] != "one" {
		t.Fatalf("get alpha = %q", got)
	}
	// Multi-get: both present keys plus a miss.
	got := c.get("alpha", "missing", "beta")
	if len(got) != 2 || got["alpha"] != "one" || got["beta"] != "two two" {
		t.Fatalf("multi-get = %q", got)
	}

	// gets: VALUE lines carry a cas column (served as 0).
	c.send("gets alpha\r\n")
	if l := c.line(); l != "VALUE alpha 0 3 0" {
		t.Fatalf("gets VALUE line = %q", l)
	}
	buf := make([]byte, 5)
	io.ReadFull(c.r, buf)
	if l := c.line(); l != "END" {
		t.Fatalf("gets trailer = %q", l)
	}

	// add: NOT_STORED on an existing key, STORED on a fresh one.
	c.send("add alpha 0 0 1\r\nX\r\n")
	if l := c.line(); l != "NOT_STORED" {
		t.Fatalf("add existing = %q", l)
	}
	c.send("add gamma 0 0 1\r\nG\r\n")
	if l := c.line(); l != "STORED" {
		t.Fatalf("add fresh = %q", l)
	}

	// delete: DELETED then NOT_FOUND.
	c.send("delete gamma\r\n")
	if l := c.line(); l != "DELETED" {
		t.Fatalf("delete = %q", l)
	}
	c.send("delete gamma\r\n")
	if l := c.line(); l != "NOT_FOUND" {
		t.Fatalf("re-delete = %q", l)
	}

	// noreply set is silent; the following get observes it.
	c.send("set quiet 0 0 2 noreply\r\nqq\r\nget quiet\r\n")
	if got := c.readValues(); got["quiet"] != "qq" {
		t.Fatalf("noreply set not applied: %q", got)
	}

	// Protocol errors keep the connection serviceable.
	c.send("bogus\r\n")
	if l := c.line(); l != "ERROR" {
		t.Fatalf("unknown command = %q", l)
	}
	c.send("get\r\n")
	if l := c.line(); !strings.HasPrefix(l, "CLIENT_ERROR") {
		t.Fatalf("keyless get = %q", l)
	}
	c.send("set big 0 0 100\r\n" + strings.Repeat("x", 100) + "\r\n")
	if l := c.line(); !strings.HasPrefix(l, "SERVER_ERROR") {
		t.Fatalf("oversized set = %q", l)
	}
	if got := c.get("alpha"); got["alpha"] != "one" {
		t.Fatalf("connection unusable after protocol errors: %q", got)
	}

	// version, then the stats surface.
	c.send("version\r\n")
	if l := c.line(); !strings.HasPrefix(l, "VERSION") {
		t.Fatalf("version = %q", l)
	}
	st := c.stats("")
	for _, k := range []string{"cmd_get", "cmd_set", "get_hits", "slots",
		"admission_wait_p99_us", "coalesced_batches", "lifecycle_leased", "policy"} {
		if _, ok := st[k]; !ok {
			t.Errorf("stats missing %q", k)
		}
	}
	if st["protocol_errors"] == "0" {
		t.Errorf("protocol_errors = 0 after forced errors")
	}
	cs := c.stats("conns")
	if _, ok := cs["conn.1.ops"]; !ok {
		t.Errorf("stats conns missing conn.1.ops: %v", cs)
	}
	ss := c.stats("slots")
	if _, ok := ss["slot.0.leases"]; !ok {
		t.Errorf("stats slots missing slot.0.leases: %v", ss)
	}
	if l := func() string { c.send("stats wat\r\n"); return c.line() }(); !strings.HasPrefix(l, "CLIENT_ERROR") {
		t.Fatalf("stats wat = %q", l)
	}

	// quit closes the peer side.
	c.send("quit\r\n")
	if _, err := c.r.ReadByte(); err != io.EOF {
		t.Fatalf("after quit: %v, want EOF", err)
	}
}

// TestServerAdmissionStorm is the storm suite: 4× more connections than
// admission slots hammering get/set through a live server under every
// policy. Every connection must complete its legs (eventual admission),
// and shutdown must drain every lease.
func TestServerAdmissionStorm(t *testing.T) {
	const (
		slots = 2
		conns = 4 * slots
		legs  = 40
		keys  = 64
	)
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			s := startServer(t, Config{
				Policy:         p,
				Slots:          slots,
				Store:          store.Config{Shards: 2, MaxValueLen: 128},
				AcquireTimeout: 30 * time.Second,
			})
			var wg sync.WaitGroup
			for i := 0; i < conns; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					c := dialServer(t, s)
					defer c.close()
					for leg := 0; leg < legs; leg++ {
						k := fmt.Sprintf("k%03d", (id*legs+leg)%keys)
						v := fmt.Sprintf("v-%d-%d", id, leg)
						c.set(k, v)
						if got, ok := c.get(k)[k]; ok && !strings.HasPrefix(got, "v-") {
							t.Errorf("conn %d: get %s = %q", id, k, got)
						}
						// Multi-key gets force the burst to lease a thread, so
						// admission contention is real: conns > slots must queue.
						c.get(k, fmt.Sprintf("k%03d", (id*legs+leg+1)%keys))
					}
				}(i)
			}
			wg.Wait()

			st := s.Stats()
			if want := uint64(conns * legs); st.CmdSet != want {
				t.Errorf("CmdSet = %d, want %d", st.CmdSet, want)
			}
			if st.AdmissionTimeouts != 0 {
				t.Errorf("AdmissionTimeouts = %d, want 0", st.AdmissionTimeouts)
			}
			if st.ExecutorGets == 0 {
				t.Errorf("no gets flowed through the coalescers")
			}
			// Only the per-shard coalescers still hold group slots once
			// every client burst has released its lease.
			if got, want := s.Group().InUse(), 2; got != want {
				t.Errorf("InUse = %d after clients done, want %d (the coalescers)", got, want)
			}
			closeClean(t, s)
			// Slot leases must account for every burst admission.
			lc := s.Group().Lifecycle()
			var leases uint64
			for _, n := range lc.SlotLeases {
				leases += n
			}
			if leases == 0 {
				t.Errorf("SlotLeases all zero after storm")
			}
		})
	}
}

// TestServerCoalescedGets pins the cross-connection coalescing claim
// without a clock: gets that queue while the shard's combiner lock is
// held are answered, by whoever takes the lock next, with one GetBatch.
func TestServerCoalescedGets(t *testing.T) {
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 1, MaxValueLen: 64},
	})
	defer closeClean(t, s)

	seed := dialServer(t, s)
	seed.set("hotkey", "hot")
	seed.close()

	const gets = 8
	c := s.coal[0]
	c.mu.Lock() // the test is the combiner the gets arrive behind
	var wg sync.WaitGroup
	for i := 0; i < gets; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := c.get("hotkey", nil, make(chan getResult, 1)); !r.ok || string(r.val) != "hot" {
				t.Errorf("get hotkey = %q, %v", r.val, r.ok)
			}
		}()
	}
	for c.queued() < gets {
		runtime.Gosched()
	}
	before := s.Stats()
	c.mu.Unlock()
	c.combine() // a departing combiner's re-check
	wg.Wait()

	st := s.Stats()
	if got := st.CoalescedBatches - before.CoalescedBatches; got != 1 {
		t.Errorf("%d queued gets took %d batches, want 1", gets, got)
	}
	if got := st.CoalescedGets - before.CoalescedGets; got != gets {
		t.Errorf("CoalescedGets advanced by %d, want %d", got, gets)
	}
	if st.CoalesceWidest != gets {
		t.Errorf("CoalesceWidest = %d, want %d", st.CoalesceWidest, gets)
	}
}

// TestCoalescerNoLostWakeup storms one shard's combiner. In the lockstep
// rounds every goroutine issues exactly one get and the round ends only
// when all are answered, so a get stranded behind a departing combiner
// has no later arrival to rescue it and hangs the round; the
// free-running leg is the same hand-over under sustained contention
// (and, under -race, the check that the mutex really orders every use
// of the shard handle).
func TestCoalescerNoLostWakeup(t *testing.T) {
	s := startServer(t, Config{
		Policy:   core.EpochPOP,
		Slots:    2,
		MaxBatch: 8, // below the widest round: a pass takes several batches
		Store:    store.Config{Shards: 1, MaxValueLen: 64},
	})
	seed := dialServer(t, s)
	seed.set("hotkey", "hot")
	seed.close()

	c := s.coal[0]
	var answered atomic.Uint64
	get := func(out chan getResult) {
		if r := c.get("hotkey", nil, out); r.ok && string(r.val) == "hot" {
			answered.Add(1)
		}
	}
	var want uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, leg := range []struct{ width, rounds, each int }{
			{2, 5000, 1}, {3, 2000, 1}, {64, 200, 1}, {64, 1, 10000},
		} {
			want += uint64(leg.width * leg.rounds * leg.each)
			for r := 0; r < leg.rounds; r++ {
				for g := 0; g < leg.width; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						out := make(chan getResult, 1)
						for i := 0; i < leg.each; i++ {
							get(out)
						}
					}()
				}
				wg.Wait()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("storm hung with %d gets answered and %d queued: a get was stranded", answered.Load(), c.queued())
	}
	if got := answered.Load(); got != want {
		t.Errorf("%d of %d gets answered with the value", got, want)
	}
	if st := s.Stats(); st.ExecutorGets < want || st.CoalesceWidest > 8 {
		t.Errorf("ExecutorGets = %d (want >= %d), CoalesceWidest = %d (want <= MaxBatch 8)", st.ExecutorGets, want, st.CoalesceWidest)
	}
	if got := s.Group().InUse(); got != 1 {
		t.Errorf("InUse = %d after the storm, want 1 (the shard's coalescer)", got)
	}
	closeClean(t, s)
}

// TestServerCloseWithGetsInFlight closes the server under a get storm:
// every connection goroutine must finish its in-flight get and exit,
// and the coalescers' leases must come back (closeClean's ledger).
func TestServerCloseWithGetsInFlight(t *testing.T) {
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 2, MaxValueLen: 64},
	})
	seed := dialServer(t, s)
	seed.set("k0", "zero")
	seed.set("k1", "one")
	seed.close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer nc.Close()
			r := bufio.NewReader(nc)
			for {
				// Errors are the expected way out: Close severs the socket.
				if _, err := fmt.Fprintf(nc, "get k%d\r\n", id%2); err != nil {
					return
				}
				for {
					l, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if l == "END\r\n" {
						break
					}
				}
			}
		}(i)
	}
	for s.Stats().ExecutorGets < 1000 {
		runtime.Gosched()
	}
	closeClean(t, s)
	wg.Wait()
	if got := s.Group().InUse(); got != 0 {
		t.Errorf("InUse = %d after Close, want 0", got)
	}
}

// TestServerReclaimsUnderBursts is the serving-front face of the
// release-debt rule: one connection whose every set is its own
// lease-put-release burst never reaches the retire threshold inside a
// lease, yet passes must run and unreclaimed memory must stay bounded.
func TestServerReclaimsUnderBursts(t *testing.T) {
	const threshold = 32
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 1, MaxValueLen: 64},
		Opts:   &core.Options{ReclaimThreshold: threshold},
	})
	defer closeClean(t, s)
	c := dialServer(t, s)
	defer c.close()
	for i := 0; i < 20*threshold; i++ {
		c.set("hot", fmt.Sprintf("value-%04d", i))
	}
	st := c.stats("")
	if n, _ := strconv.Atoi(st["reclaim_passes"]); n == 0 {
		t.Errorf("reclaim_passes = %s after %d overwrites at threshold %d", st["reclaim_passes"], 20*threshold, threshold)
	}
	// An overwrite retires the old node and its value ticket, so a burst
	// adds at most a few nodes to a debt that is settled at threshold.
	if n, err := strconv.Atoi(st["unreclaimed"]); err != nil || n > 2*threshold {
		t.Errorf("unreclaimed = %q, want <= %d", st["unreclaimed"], 2*threshold)
	}
}
