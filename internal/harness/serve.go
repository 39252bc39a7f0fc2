// Serve mode: one trial of the wire-protocol serving front
// (internal/server) — real TCP clients speaking the memcached-text
// subset against a live popserve instance, with more connections than
// admission slots. Where a store trial measures the KV layer in-process,
// a serve trial measures the production shape end to end: protocol
// framing, burst-scoped thread leases queueing for admission, and
// cross-connection get coalescing, with client-observed latency tails
// per op class and the admission-queue wait distribution.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pop/internal/chaos"
	"pop/internal/core"
	"pop/internal/report"
	"pop/internal/rng"
	"pop/internal/server"
	"pop/internal/store"
	"pop/internal/workload"
)

// ServeConfig describes one serve trial.
type ServeConfig struct {
	Policy   core.Policy   // reclamation scheme
	Slots    int           // admission slots (thread leases for connections)
	Conns    int           // client connections (the interesting runs have Conns ≫ Slots)
	Duration time.Duration // execution-phase length
	Keys     int64         // key population (ranks 0..Keys-1)
	Shards   int           // store shard count (power of two; default 8)
	Backing  string        // per-shard structure (default skl)
	Seed     uint64        // trial seed

	// GetPct is the get share of the op mix (default 90); the rest are
	// sets. Gets are single-key — the coalesced path; sets lease the
	// connection's burst thread, so admission contention is real.
	GetPct int

	// OpenRate switches to open-loop arrivals: the target total ops/s
	// across all connections, each connection pacing at OpenRate/Conns
	// with latency measured from the intended send time (so admission
	// backlog shows up as tail latency, not hidden coordinated
	// omission). 0 = closed loop.
	OpenRate float64

	// Dist is the key-popularity distribution (zipf at
	// workload.DefaultZipfS skew).
	Dist workload.Dist

	// ValueMin/ValueMax bound set payload sizes (defaults 16, 256).
	ValueMin, ValueMax int

	// Chaos runs the fault-injector bundle against the server's store
	// (not over the wire) for the trial's length: the server's domain is
	// sized with Chaos.Slots() extra thread slots and the injectors
	// lease them before any client connects.
	Chaos chaos.Config
}

func (c ServeConfig) withDefaults() (ServeConfig, error) {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Conns <= 0 {
		return c, fmt.Errorf("harness: serve Conns must be positive")
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Millisecond
	}
	if c.Keys <= 1 {
		return c, fmt.Errorf("harness: serve Keys must exceed 1")
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Backing == "" {
		c.Backing = store.BackingSkipList
	}
	if c.GetPct == 0 {
		c.GetPct = 90
	}
	if c.GetPct < 0 || c.GetPct > 100 {
		return c, fmt.Errorf("harness: GetPct %d out of [0,100]", c.GetPct)
	}
	var err error
	if c.ValueMin, c.ValueMax, err = valueBounds(c.ValueMin, c.ValueMax); err != nil {
		return c, err
	}
	if c.Seed == 0 {
		c.Seed = 0x5e7e_cafe
	}
	return c, nil
}

// ServeResult is the outcome of one serve trial.
type ServeResult struct {
	Config ServeConfig

	Ops        uint64  // client ops completed (one get or set)
	Gets, Sets uint64  // split by class
	Hits       uint64  // gets that returned a value
	Throughput float64 // Ops per second of Elapsed

	// Elapsed is the measured phase: release until every client has
	// finished its in-flight request after stop (see Result.Elapsed).
	Elapsed time.Duration

	// ValueErrors counts served values failing the workload checksum —
	// a stale or torn value crossing the wire; must be zero.
	ValueErrors uint64

	// GetLat/SetLat are client-observed latencies (ns): closed-loop
	// from send, open-loop from the intended send time.
	GetLat, SetLat *report.Histogram

	// AdmWait is the server's admission-queue wait distribution (ns)
	// per burst that needed a thread lease.
	AdmWait *report.Histogram

	Server    server.Stats        // serving-front counters (coalescing, admissions)
	Lifecycle core.LifecycleStats // after shutdown: Leased counts leaks (must be 0)
	Chaos     chaos.Stats         // what the injectors did (zero when Chaos disabled)
}

// serveClient is one load-generating connection.
type serveClient struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func dialServe(addr string) (*serveClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &serveClient{nc: nc, r: bufio.NewReaderSize(nc, 32<<10), w: bufio.NewWriterSize(nc, 32<<10)}, nil
}

func (c *serveClient) close() { c.nc.Close() }

// get issues one single-key get and returns the value (appended into
// buf) and whether it hit.
func (c *serveClient) get(key string, buf []byte) ([]byte, bool, error) {
	c.w.WriteString("get ")
	c.w.WriteString(key)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return buf, false, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return buf, false, err
	}
	line = strings.TrimRight(line, "\r\n")
	if line == "END" {
		return buf[:0], false, nil
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[0] != "VALUE" {
		return buf, false, fmt.Errorf("harness: unexpected get reply %q", line)
	}
	n, err := strconv.Atoi(f[3])
	if err != nil {
		return buf, false, fmt.Errorf("harness: bad VALUE length in %q", line)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return buf, false, err
	}
	// Trailing CRLF and the END line.
	if _, err := c.r.Discard(2); err != nil {
		return buf, false, err
	}
	if end, err := c.r.ReadString('\n'); err != nil {
		return buf, false, err
	} else if strings.TrimRight(end, "\r\n") != "END" {
		return buf, false, fmt.Errorf("harness: missing END, got %q", end)
	}
	return buf, true, nil
}

// set stores key=val and waits for the reply.
func (c *serveClient) set(key string, val []byte) error {
	fmt.Fprintf(c.w, "set %s 0 0 %d\r\n", key, len(val))
	c.w.Write(val)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	if l := strings.TrimRight(line, "\r\n"); l != "STORED" {
		return fmt.Errorf("harness: set %s: %q", key, l)
	}
	return nil
}

// The serve trial's op classes (tally indices).
const (
	serveGet = iota
	serveSet
	numServeClasses
)

// RunServe executes one serve trial: a live server on a loopback port,
// Conns client connections generating the get/set mix, latency measured
// at the client.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return ServeResult{}, err
	}
	srv, err := server.New(server.Config{
		Addr:   "127.0.0.1:0",
		Policy: cfg.Policy,
		Slots:  cfg.Slots,
		Store: store.Config{
			Shards:               cfg.Shards,
			Backing:              cfg.Backing,
			ExpectedKeysPerShard: cfg.Keys/int64(cfg.Shards) + 1,
		},
		ExtraSlots: cfg.Chaos.Slots(),
	})
	if err != nil {
		return ServeResult{}, err
	}
	if err := srv.Start(); err != nil {
		return ServeResult{}, err
	}
	addr := srv.Addr().String()

	keyTab, hkTab := keyTable(cfg.Keys)

	if err := servePrefill(cfg, addr, keyTab, hkTab); err != nil {
		srv.Close()
		return ServeResult{}, err
	}

	// The injectors lease their ExtraSlots now, before any client
	// connects, so the admission budget the clients see stays Slots.
	chaosRun, err := chaos.Start(cfg.Chaos, srv.Store(), keyTab)
	if err != nil {
		srv.Close()
		return ServeResult{}, err
	}

	clients := make([]*serveClient, cfg.Conns)
	for i := range clients {
		if clients[i], err = dialServe(addr); err != nil {
			chaosRun.Stop()
			srv.Close()
			return ServeResult{}, fmt.Errorf("harness: client %d: %w", i, err)
		}
	}
	samplers := make([]*workload.Sampler, cfg.Conns)
	for i := range samplers {
		sm, err := workload.NewSampler(cfg.Seed+uint64(i)*0x9e3779b97f4a7c15+1, cfg.Keys, cfg.Dist, workload.DefaultZipfS)
		if err != nil {
			chaosRun.Stop()
			srv.Close()
			return ServeResult{}, fmt.Errorf("harness: client %d: %w", i, err)
		}
		samplers[i] = sm
	}

	counters := newTallies(cfg.Conns, numServeClasses, func(int) bool { return true })
	errs := make([]error, cfg.Conns)
	perConnRate := cfg.OpenRate / float64(cfg.Conns)
	// Clients hold no thread handle — the server leases per burst — so
	// the trial has no rotation and no drain.
	ph, _ := (&trial{
		workers:  cfg.Conns,
		duration: cfg.Duration,
		leg: func(t *trial, id int) bool {
			errs[id] = runServeClient(cfg, clients[id], samplers[id], id, keyTab, hkTab, perConnRate, &t.stop, &counters[id])
			return false
		},
	}).run()
	for _, c := range clients {
		c.close()
	}

	res := ServeResult{Config: cfg, Server: srv.Stats(), AdmWait: srv.AdmissionWait(), Elapsed: ph.elapsed}
	// Injectors stop (flush + release their leases) before Close, so the
	// post-shutdown lifecycle check below counts only real leaks.
	res.Chaos = chaosRun.Stop()
	if err := srv.Close(); err != nil {
		return res, err
	}
	res.Lifecycle = srv.Group().Lifecycle()
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("harness: client %d: %w", i, err)
		}
	}
	sum := sumTallies(counters)
	res.Ops, res.Hits, res.ValueErrors = sum.ops, sum.keys, sum.valueErrs
	res.Gets, res.Sets = sum.byClass[serveGet], sum.byClass[serveSet]
	res.GetLat, res.SetLat = sum.lats[serveGet], sum.lats[serveSet]
	res.Throughput = float64(res.Ops) / ph.elapsed.Seconds()
	if res.Lifecycle.Leased != 0 {
		return res, fmt.Errorf("harness: %d thread leases leaked after shutdown", res.Lifecycle.Leased)
	}
	return res, nil
}

// runServeClient is one connection's load loop.
func runServeClient(cfg ServeConfig, c *serveClient, keys *workload.Sampler, id int,
	keyTab []string, hkTab []int64, rate float64, stop *atomic.Bool, out *tally) error {
	r := rng.New(cfg.Seed ^ (uint64(id)*0xff51afd7ed558ccd + 13))
	var (
		vbuf []byte
		gbuf []byte
		tag  = uint32(id)<<24 | 0x400000
	)
	// Open loop: the intended send times are a fixed grid; latency is
	// measured from the intended time, so a stalled server accrues the
	// backlog it caused.
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	n := 0
	for !stop.Load() {
		intended := time.Now()
		if interval > 0 {
			intended = start.Add(time.Duration(n) * interval)
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			if stop.Load() {
				return nil
			}
		}
		n++
		rank := keys.Next()
		if int(r.Intn(100)) < cfg.GetPct {
			var ok bool
			var err error
			gbuf, ok, err = c.get(keyTab[rank], gbuf)
			if err != nil {
				return err
			}
			out.lats[serveGet].Record(time.Since(intended).Nanoseconds())
			out.byClass[serveGet]++
			if ok {
				out.keys++
				if !workload.ValueBytesValid(hkTab[rank], gbuf) {
					out.valueErrs++
				}
			}
		} else {
			tag++
			size := cfg.ValueMin + int(r.Intn(int64(cfg.ValueMax-cfg.ValueMin+1)))
			vbuf = workload.AppendValueBytes(vbuf[:0], hkTab[rank], tag, size)
			if err := c.set(keyTab[rank], vbuf); err != nil {
				return err
			}
			out.lats[serveSet].Record(time.Since(intended).Nanoseconds())
			out.byClass[serveSet]++
		}
		out.ops++
	}
	return nil
}

// servePrefill loads half the key population through one pipelined
// connection (sets with noreply, a trailing version to sync).
func servePrefill(cfg ServeConfig, addr string, keyTab []string, hkTab []int64) error {
	c, err := dialServe(addr)
	if err != nil {
		return fmt.Errorf("harness: prefill dial: %w", err)
	}
	defer c.close()
	var vbuf []byte
	r := rng.New(cfg.Seed ^ 0xfeed)
	tag := uint32(0x800000)
	for rank := int64(0); rank < cfg.Keys/2; rank++ {
		tag++
		size := cfg.ValueMin + int(r.Intn(int64(cfg.ValueMax-cfg.ValueMin+1)))
		vbuf = workload.AppendValueBytes(vbuf[:0], hkTab[rank], tag, size)
		fmt.Fprintf(c.w, "set %s 0 0 %d noreply\r\n", keyTab[rank], len(vbuf))
		c.w.Write(vbuf)
		c.w.WriteString("\r\n")
	}
	c.w.WriteString("version\r\n")
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("harness: prefill flush: %w", err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("harness: prefill sync: %w", err)
	}
	if !strings.HasPrefix(line, "VERSION") {
		return fmt.Errorf("harness: prefill sync reply %q", line)
	}
	return nil
}
