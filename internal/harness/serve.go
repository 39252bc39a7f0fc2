// Serve mode: one trial of the wire-protocol serving front
// (internal/server) — real TCP clients speaking the memcached-text
// subset against a live popserve instance, with more connections than
// admission slots. Where a store trial measures the KV layer in-process,
// a serve trial measures the production shape end to end: protocol
// framing, burst-scoped thread leases queueing for admission, and
// lone gets served on per-shard handles, with client-observed latency tails
// per op class and the admission-queue wait distribution. Only the
// measured phase crosses the wire: the prefill loads the server's store
// in-process, the way every trial prefills, on handles leased from the
// server's group and released before any client dials.
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
	Seed     uint64        // trial seed

	// GetPct is the get share of the op mix (default 90); the rest are
	// sets. Gets are single-key — the shard-handle path; sets lease the
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

	// Chaos runs the fault-injector bundle against the server's store
	// (not over the wire) for the trial's length: the server's group is
	// sized with Chaos.Slots() extra slots (server.Config.ExtraSlots),
	// which the injectors lease outside the admission budget.
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
	if c.GetPct == 0 {
		c.GetPct = 90
	}
	if c.GetPct < 0 || c.GetPct > 100 {
		return c, fmt.Errorf("harness: GetPct %d out of [0,100]", c.GetPct)
	}
	if c.Seed == 0 {
		c.Seed = 0x5e7e_cafe
	}
	return c, nil
}

// serveValueMin and serveValueMax bound a set's payload size: the
// defaults of valueBounds, 16 and 256 bytes (defaults it never rejects).
var serveValueMin, serveValueMax, _ = valueBounds(0, 0)

// ServeResult is the outcome of one serve trial: the shared Core (an op
// is one client get or set, ValueErrors counts values that crossed the
// wire stale or torn, and Lifecycle is read after shutdown, so its
// Leased counts leaks and must be 0) plus the serving front's view.
type ServeResult struct {
	Config ServeConfig
	Core

	Gets, Sets uint64 // Ops split by class
	Hits       uint64 // gets that returned a value

	// GetLat/SetLat are client-observed latencies (ns): closed-loop
	// from send, open-loop from the intended send time.
	GetLat, SetLat *report.Histogram

	// AdmWait is the server's admission-queue wait distribution (ns)
	// per burst that needed a thread lease.
	AdmWait *report.Histogram

	Server server.Stats // serving-front counters (shard-handle gets, admissions)
	Chaos  chaos.Stats  // what the injectors did (zero when Chaos disabled)
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
// at the client. The server's store is the unordered hash table at its
// default shard count: the wire protocol has no scan command.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return ServeResult{}, err
	}
	shards, _, _ := store.Layout(0, 1) // the store's default shard count; no error at the defaults
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		Policy:     cfg.Policy,
		Slots:      cfg.Slots,
		Store:      store.Config{ExpectedKeysPerShard: (cfg.Keys + int64(shards) - 1) / int64(shards)},
		ExtraSlots: cfg.Chaos.Slots(),
	})
	if err != nil {
		return ServeResult{}, err
	}
	if err := srv.Start(); err != nil {
		return ServeResult{}, err
	}
	g, s := srv.Group(), srv.Store()

	// Prefill ranks [0, Keys/2) in-process, on Slots handles leased from
	// the server's group and released before any client dials.
	loaders, err := lease(g, cfg.Slots)
	if err != nil {
		srv.Close()
		return ServeResult{}, err
	}
	prefill(loaders, func(i int) int64 {
		return share(cfg.Keys/2, int64(cfg.Slots), i == 0)
	}, func(i int, h *core.GroupHandle, rank int64) func() bool {
		r := rng.New(cfg.Seed ^ 0xfeed ^ uint64(i))
		var (
			kb   [workload.KeyLen]byte
			vbuf []byte
		)
		return func() bool {
			size := serveValueMin + int(r.Intn(int64(serveValueMax-serveValueMin+1)))
			key := workload.PutKey(&kb, rank)
			vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(key), 0x800001+uint32(rank), size)
			s.Put(h, key, vbuf)
			rank++
			return true
		}
	})
	for _, h := range loaders {
		g.Release(h)
	}

	// The injectors lease their ExtraSlots now and hold or cycle them
	// for the whole measured phase. They do not touch the admission
	// budget: the clients' bursts queue on the server's Slots tokens.
	chaosRun, err := chaos.Start(cfg.Chaos, s, cfg.Keys)
	if err != nil {
		srv.Close()
		return ServeResult{}, err
	}

	addr := srv.Addr().String()
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

	errs := make([]error, cfg.Conns)
	perConnRate := cfg.OpenRate / float64(cfg.Conns)
	var chaosStats chaos.Stats
	t := &trial{
		g: g, workers: cfg.Conns, duration: cfg.Duration, outstanding: s.Outstanding,
		tallies: newTallies(cfg.Conns, numServeClasses, func(int) bool { return true }),
		leg: func(t *trial, id int) bool {
			errs[id] = runServeClient(cfg, clients[id], samplers[id], id, perConnRate, &t.stop, &t.tallies[id])
			return false
		},
		// Injectors stop (flush + release their leases) before Close, so
		// the post-shutdown lifecycle check below counts only real leaks.
		settle: func() error { chaosStats = chaosRun.Stop(); return nil },
	}
	c, sum, _ := t.run()
	for _, cl := range clients {
		cl.close()
	}

	// The server's counts are read after Close, once every connection
	// has folded its block into the closed totals: the final count.
	closeErr := srv.Close()
	res := ServeResult{
		Config: cfg, Core: c, Hits: sum.keys,
		Gets: sum.byClass[serveGet], Sets: sum.byClass[serveSet],
		GetLat: sum.lats[serveGet], SetLat: sum.lats[serveSet],
		AdmWait: srv.AdmissionWait(), Server: srv.Stats(), Chaos: chaosStats,
	}
	if closeErr != nil {
		return res, closeErr
	}
	res.Lifecycle = g.Lifecycle()
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("harness: client %d: %w", i, err)
		}
	}
	if res.Lifecycle.Leased != 0 {
		return res, fmt.Errorf("harness: %d thread leases leaked after shutdown", res.Lifecycle.Leased)
	}
	return res, nil
}

// runServeClient is one connection's load loop. It formats each drawn
// rank's key into its own buffer (workload.PutKey); the client's writer
// copies the key onto the wire.
func runServeClient(cfg ServeConfig, c *serveClient, keys *workload.Sampler, id int,
	rate float64, stop *atomic.Bool, out *tally) error {
	r := rng.New(cfg.Seed ^ (uint64(id)*0xff51afd7ed558ccd + 13))
	var (
		kb   [workload.KeyLen]byte
		vbuf []byte
		gbuf []byte
		tag  = uint32(id)<<24 | 0x400000

		ops, hits, valueErrs uint64
		byClass              [numServeClasses]uint64
	)
	defer func() { out.add(ops, hits, valueErrs, byClass[:]) }()
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
		key := workload.PutKey(&kb, keys.Next())
		if int(r.Intn(100)) < cfg.GetPct {
			var ok bool
			var err error
			gbuf, ok, err = c.get(key, gbuf)
			if err != nil {
				return err
			}
			out.lats[serveGet].Record(time.Since(intended).Nanoseconds())
			byClass[serveGet]++
			if ok {
				hits++
				if !workload.ValueBytesValid(store.KeyHash(key), gbuf) {
					valueErrs++
				}
			}
		} else {
			tag++
			size := serveValueMin + int(r.Intn(int64(serveValueMax-serveValueMin+1)))
			vbuf = workload.AppendValueBytes(vbuf[:0], store.KeyHash(key), tag, size)
			if err := c.set(key, vbuf); err != nil {
				return err
			}
			out.lats[serveSet].Record(time.Since(intended).Nanoseconds())
			byClass[serveSet]++
		}
		ops++
	}
	return nil
}
