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
// thread adopts whatever the departing shard handles and connections
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
	vs = append(vs, iv.CheckLeaked(s.Group().Unreclaimed())...)
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
	// The shard handles are not admitted bursts, and the stats
	// burst itself holds no lease.
	if st["slots_inuse"] != "0" || st["admission_queue"] != "0" {
		t.Errorf("idle server: slots_inuse = %s, admission_queue = %s, want 0, 0", st["slots_inuse"], st["admission_queue"])
	}
	// The group's slots are leased by the two shard handles alone.
	if st["group_slots_inuse"] != "2" {
		t.Errorf("idle server: group_slots_inuse = %s, want 2 (the shard handles)", st["group_slots_inuse"])
	}
	for _, k := range []string{"cmd_get", "cmd_set", "get_hits", "slots",
		"admission_wait_p99_us", "executor_gets", "lifecycle_leased", "policy"} {
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
				t.Errorf("no gets flowed through the shard handles")
			}
			sc := dialServer(t, s)
			if peak, _ := strconv.Atoi(sc.stats("")["slots_peak"]); peak > slots {
				t.Errorf("slots_peak = %d, want <= Slots %d", peak, slots)
			}
			sc.close()
			// Only the shard handles still hold group slots once every
			// client burst has released its lease.
			if got, want := s.Group().InUse(), 2; got != want {
				t.Errorf("InUse = %d after clients done, want %d (the shard handles)", got, want)
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

// TestServerAdmissionBudgetExact pins the budget to Slots: group slots
// reserved for out-of-band tenants (ExtraSlots) are not admission
// capacity. The test holds the one token until all four pipelining
// connections have queued behind it (under a wider budget they would
// run instead), then lets them contend; one burst runs at a time.
func TestServerAdmissionBudgetExact(t *testing.T) {
	const (
		conns = 4
		sets  = 3000
	)
	s := startServer(t, Config{
		Policy:     core.EpochPOP,
		Slots:      1,
		ExtraSlots: 3,
		Store:      store.Config{Shards: 2, MaxValueLen: 64},
	})
	defer closeClean(t, s)
	s.adm <- struct{}{}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dialServer(t, s)
			defer c.close()
			var b strings.Builder
			for j := 0; j < sets; j++ {
				fmt.Fprintf(&b, "set c%d-%d 0 0 5\r\nvalue\r\n", id, j)
			}
			// Write from a second goroutine so neither side can fill
			// both socket buffers while the other waits.
			go io.WriteString(c.nc, b.String())
			for j := 0; j < sets; j++ {
				if l, err := c.r.ReadString('\n'); err != nil || l != "STORED\r\n" {
					t.Errorf("conn %d set %d: %q, %v", id, j, l, err)
					return
				}
			}
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); s.admQueue.Load() < conns; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections queued behind the held token", s.admQueue.Load(), conns)
		}
	}
	<-s.adm
	wg.Wait()
	c := dialServer(t, s)
	defer c.close()
	st := c.stats("")
	if peak, _ := strconv.Atoi(st["slots_peak"]); peak > 1 {
		t.Errorf("slots_peak = %d with Slots 1", peak)
	}
	if waits, _ := strconv.Atoi(st["admission_waits"]); waits < conns {
		t.Errorf("admission_waits = %d, want >= %d", waits, conns)
	}
}

// TestServerAdmissionTimeout drives the queue's timeout at the server:
// with every admission token taken, a set waits AcquireTimeout, answers
// SERVER_ERROR, and the connection serves the next set once tokens
// come back.
func TestServerAdmissionTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s := startServer(t, Config{
		Policy:         core.EpochPOP,
		Slots:          2,
		AcquireTimeout: timeout,
		Store:          store.Config{Shards: 1, MaxValueLen: 64},
	})
	defer closeClean(t, s)
	for i := 0; i < cap(s.adm); i++ {
		s.adm <- struct{}{}
	}
	c := dialServer(t, s)
	defer c.close()
	start := time.Now()
	c.send("set k 0 0 1\r\nv\r\n")
	if l := c.line(); l != "SERVER_ERROR admission queue timeout" {
		t.Fatalf("set with every token taken = %q", l)
	}
	if waited := time.Since(start); waited < timeout {
		t.Errorf("timed out after %v, want >= AcquireTimeout %v", waited, timeout)
	}
	if st := c.stats(""); st["admission_timeouts"] != "1" || st["admission_waits"] != "1" {
		t.Errorf("admission_timeouts = %s, admission_waits = %s, want 1, 1", st["admission_timeouts"], st["admission_waits"])
	}
	for i := 0; i < cap(s.adm); i++ {
		<-s.adm
	}
	c.set("k", "v")
}

// TestServerPartialCommandReleasesSlot: a burst ends before the socket
// read, not when the codec's buffer is empty, so a client whose last
// write stops inside a command gets the replies it is owed and holds no
// slot while the rest of the command is in flight.
func TestServerPartialCommandReleasesSlot(t *testing.T) {
	s := startServer(t, Config{
		Policy:         core.EpochPOP,
		Slots:          1,
		AcquireTimeout: 200 * time.Millisecond,
		Store:          store.Config{Shards: 1, MaxValueLen: 64},
	})
	defer closeClean(t, s)
	a := dialServer(t, s)
	defer a.close()
	a.send("set a 0 0 1\r\na\r\nset b 0 0 5\r\nab")
	a.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if l := a.line(); l != "STORED" {
		t.Fatalf("conn A's complete set = %q", l)
	}
	a.nc.SetReadDeadline(time.Time{})
	b := dialServer(t, s)
	defer b.close()
	b.set("c", "other") // answers SERVER_ERROR if A's fragment kept the slot
	a.send("cde\r\n")
	if l := a.line(); l != "STORED" {
		t.Fatalf("conn A's completed set = %q", l)
	}
	if got := a.get("b"); got["b"] != "abcde" {
		t.Fatalf("get b = %q", got)
	}
}

// TestShardHandleStorm storms one shard's handle with lone gets. In the
// lockstep rounds every goroutine issues exactly one get and the round
// ends only when all are answered; the free-running leg keeps the shard
// mutex contended. Under -race it is the check that the mutex orders
// every use of the shard handle. Each goroutine stands in for one
// connection: it counts its gets in a connection's block and folds the
// block on leaving, as a connection does at close.
func TestShardHandleStorm(t *testing.T) {
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 1, MaxValueLen: 64},
	})
	seed := dialServer(t, s)
	seed.set("hotkey", "hot")
	seed.close()

	var answered atomic.Uint64
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
						c := &conn{srv: s}
						defer s.leave(c)
						var buf []byte
						for i := 0; i < leg.each; i++ {
							val, ok := c.get("hotkey", buf)
							if ok && string(val) == "hot" {
								answered.Add(1)
							}
							buf = val[:0]
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
		t.Fatalf("storm hung with %d gets answered", answered.Load())
	}
	if got := answered.Load(); got != want {
		t.Errorf("%d of %d gets answered with the value", got, want)
	}
	if st := s.Stats(); st.ExecutorGets != want {
		t.Errorf("ExecutorGets = %d, want %d", st.ExecutorGets, want)
	}
	if got := s.Group().InUse(); got != 1 {
		t.Errorf("InUse = %d after the storm, want 1 (the shard handle)", got)
	}
	closeClean(t, s)
}

// TestServerLoneGetBypassesAdmission pins the shard handles' admission
// bypass: with every admission token taken, a lone get still answers
// from its shard's handle, while a set and a multi-key get, which need
// the burst's own lease, time out in the admission queue.
func TestServerLoneGetBypassesAdmission(t *testing.T) {
	s := startServer(t, Config{
		Policy:         core.EpochPOP,
		Slots:          2,
		AcquireTimeout: 50 * time.Millisecond,
		Store:          store.Config{Shards: 2, MaxValueLen: 64},
	})
	c := dialServer(t, s)
	defer c.close()
	c.set("k0", "zero")
	c.set("k1", "one")
	for i := 0; i < cap(s.adm); i++ {
		s.adm <- struct{}{}
	}
	if got := c.get("k0"); got["k0"] != "zero" {
		t.Errorf("lone get with every token taken = %q, want zero", got)
	}
	c.send("set k2 0 0 3\r\ntwo\r\n")
	if l := c.line(); l != "SERVER_ERROR admission queue timeout" {
		t.Errorf("set with every token taken = %q", l)
	}
	c.send("get k0 k1\r\n")
	if l := c.line(); l != "SERVER_ERROR admission queue timeout" {
		t.Errorf("two-key get with every token taken = %q", l)
	}
	for i := 0; i < cap(s.adm); i++ {
		<-s.adm
	}
	closeClean(t, s)
}

// TestServerStatsHitsNeverExceedKeys polls Stats while two connections
// run pipelined single-key gets that all hit: a poll must never see
// more hits than keys, or GetMisses (their difference) wraps to nearly
// 2^64.
func TestServerStatsHitsNeverExceedKeys(t *testing.T) {
	const (
		conns    = 2
		pipeline = 16 // gets per write
		minPolls = 10_000
		minHits  = 20_000
	)
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  2,
		Store:  store.Config{Shards: 2, MaxValueLen: 64},
	})
	seed := dialServer(t, s)
	seed.set("hot", "value")
	seed.close()

	burst := strings.Repeat("get hot\r\n", pipeline)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range conns {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer nc.Close()
			r := bufio.NewReader(nc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := io.WriteString(nc, burst); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				for range 3 * pipeline { // VALUE line, payload, END
					if _, err := r.ReadString('\n'); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(time.Minute)
	polls := 0
	var st Stats
	for polls < minPolls || st.GetHits < minHits {
		st = s.Stats()
		polls++
		if st.GetHits > st.GetKeys {
			t.Errorf("poll %d: GetHits %d > GetKeys %d (GetMisses %d)", polls, st.GetHits, st.GetKeys, st.GetMisses)
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("only %d hits in %d polls within a minute", st.GetHits, polls)
			break
		}
	}
	close(stop)
	wg.Wait()
	closeClean(t, s)
}

// TestServerCloseWithGetsInFlight closes the server under a get storm:
// every connection goroutine must finish its in-flight get and exit,
// and the shard handles' leases must come back (closeClean's ledger).
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
	// An overwrite retires the old node (its value slot frees with it), so a burst
	// adds at most a few nodes to a debt that is settled at threshold.
	if n, err := strconv.Atoi(st["unreclaimed"]); err != nil || n > 2*threshold {
		t.Errorf("unreclaimed = %q, want <= %d", st["unreclaimed"], 2*threshold)
	}
}
