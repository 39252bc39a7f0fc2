package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/core"
	"pop/internal/report"
	"pop/internal/store"
	"pop/internal/telemetry"
)

// Config tunes a Server. The zero value listens on a loopback port
// with the paper's defaults.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:11311";
	// ":0" picks a free port — see Server.Addr).
	Addr string
	// Policy is the reclamation scheme (default core.EpochPOP: the
	// paper's headline serving policy).
	Policy core.Policy
	// Slots is the connection-admission budget: how many connections
	// may hold a thread lease at once (default 8). The domain group is
	// sized at Slots plus one dedicated slot per shard for the get
	// coalescers, so get service never competes with admission.
	Slots int
	// Groups is the number of member reclamation domains the store's
	// shards are partitioned into (default 1 = the classic single
	// domain; rounded up to a power of two, capped at the shard count).
	// More groups shrink reclamation fan-out: a reclaim pass inside one
	// member pings only the connections mid-operation in that member's
	// shards.
	Groups int
	// Store configures the sharded KV store underneath.
	Store store.Config
	// MaxBatch caps a coalesced batch — the keys one protected
	// operation may answer (default 64).
	MaxBatch int
	// AcquireTimeout bounds one burst's wait in the admission queue
	// (default 10s); a timed-out command answers SERVER_ERROR and the
	// connection stays up.
	AcquireTimeout time.Duration
	// ExtraSlots reserves additional domain thread slots for tenants
	// outside the serving path — fault injectors running against
	// Store() directly. The extra capacity is visible to the admission
	// pool too (pools share the domain's slot space), so the Slots
	// budget is only exact while the out-of-band tenants hold their
	// leases; harnesses that use this start injectors before admitting
	// clients.
	ExtraSlots int
	// Opts tunes reclamation (nil = paper defaults).
	Opts *core.Options
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:11311"
	}
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 10 * time.Second
	}
	return c
}

// Server is a memcached-text serving front over one Store. Create with
// New, start with Start, stop with Close.
type Server struct {
	cfg  Config
	g    *core.DomainGroup
	st   *store.Store
	coal []*coalescer

	ln      net.Listener
	started time.Time
	closed  atomic.Bool
	connWG  sync.WaitGroup // accept loop + connection goroutines

	mu     sync.Mutex
	conns  map[uint64]*conn
	nextID uint64

	admMu   sync.Mutex
	admWait report.Histogram // admission-queue wait per burst (ns)

	sampler atomic.Pointer[telemetry.Sampler] // attached via SetTelemetry

	accepted  atomic.Uint64
	cmdGet    atomic.Uint64 // get/gets commands (not keys)
	cmdSet    atomic.Uint64 // set+add commands
	cmdDelete atomic.Uint64
	getKeys   atomic.Uint64 // keys asked across get/gets
	getHits   atomic.Uint64
	admTimeos atomic.Uint64 // bursts that timed out in the admission queue
	protoErrs atomic.Uint64 // CLIENT_ERROR/ERROR responses
}

// New builds the domain group, the store, and one get coalescer per
// shard. The coalescers' group-slot leases are taken here, before any
// connection exists, so the admission budget is exactly cfg.Slots.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Resolve the shard count the way the store will (power of two,
	// default 8): the group must hold Slots + shards slots.
	shards := cfg.Store.Shards
	if shards <= 0 {
		shards = 8
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	shards = n
	if shards > store.MaxShards {
		return nil, fmt.Errorf("server: %d shards exceeds store.MaxShards (%d)", shards, store.MaxShards)
	}
	cfg.Store.Shards = shards
	groups := cfg.Groups
	if groups <= 0 {
		groups = 1
	}
	n = 1
	for n < groups {
		n <<= 1
	}
	groups = n
	if groups > shards {
		groups = shards
	}

	g := core.NewDomainGroup(cfg.Policy, groups, cfg.Slots+shards+cfg.ExtraSlots, cfg.Opts)
	st, err := store.New(g, cfg.Store)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		g:     g,
		st:    st,
		coal:  make([]*coalescer, shards),
		conns: make(map[uint64]*conn),
	}
	// One dedicated handle per shard, held until Close. Serving only its
	// shard, a handle only ever leases that shard's member domain thread,
	// so a coalescer never widens another member's ping fan-out.
	for i := range s.coal {
		h, err := g.Acquire()
		if err != nil {
			s.releaseCoalescers()
			return nil, fmt.Errorf("server: coalescer lease: %w", err)
		}
		s.coal[i] = &coalescer{st: st, h: h, maxBatch: cfg.MaxBatch}
	}
	return s, nil
}

// SetTelemetry attaches a live sampler (normally built over Group()
// with the server itself as telemetry.ExtrasSource). Once attached,
// "stats telemetry" reports its snapshot and "stats reset" rebases it.
// The caller owns the sampler's Start/Stop lifecycle.
func (s *Server) SetTelemetry(t *telemetry.Sampler) { s.sampler.Store(t) }

// Telemetry returns the attached sampler (nil if none).
func (s *Server) Telemetry() *telemetry.Sampler { return s.sampler.Load() }

// ExtraNames lists the serving counters the server contributes to
// telemetry samples (telemetry.ExtrasSource).
func (s *Server) ExtraNames() []string {
	return []string{"conns_accepted", "cmd_get", "cmd_set", "cmd_delete",
		"get_keys", "get_hits", "admission_timeouts", "protocol_errors"}
}

// ReadExtras appends the current cumulative serving counters, aligned
// with ExtraNames (telemetry.ExtrasSource).
func (s *Server) ReadExtras(dst []uint64) []uint64 {
	return append(dst, s.accepted.Load(), s.cmdGet.Load(), s.cmdSet.Load(),
		s.cmdDelete.Load(), s.getKeys.Load(), s.getHits.Load(),
		s.admTimeos.Load(), s.protoErrs.Load())
}

// Store exposes the store underneath (prefill, direct inspection).
// Callers need their own group-handle lease; see Group.
func (s *Server) Store() *store.Store { return s.st }

// Group exposes the domain group: reclamation and lifecycle accounting,
// and the lease facade out-of-band tenants (prefill, fault injectors)
// acquire handles from.
func (s *Server) Group() *core.DomainGroup { return s.g }

// Start begins listening and accepting connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = time.Now()
	s.connWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		if s.closed.Load() {
			nc.Close()
			return
		}
		s.accepted.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.nextID++
		c.id = s.nextID
		s.conns[c.id] = c
		s.mu.Unlock()
		s.connWG.Add(1)
		go c.serve()
	}
}

// Close stops accepting, severs every connection, waits for the
// connection goroutines to finish their in-flight command (a get
// already queued to a coalescer is always answered: see combine), then
// returns the coalescers' thread leases. After Close,
// Group().Lifecycle().Leased counts only leaks — a clean shutdown
// leaves it at zero.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for _, c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.releaseCoalescers()
	return err
}

// releaseCoalescers returns the shard handles. No combiner can be
// running: connWG.Wait ordered every connection's last use before this.
func (s *Server) releaseCoalescers() {
	for _, c := range s.coal {
		if c != nil {
			s.g.Release(c.h)
		}
	}
}

// recordAdmission folds one burst's admission wait into the server
// histogram.
func (s *Server) recordAdmission(d time.Duration) {
	s.admMu.Lock()
	s.admWait.Record(d.Nanoseconds())
	s.admMu.Unlock()
}

// AdmissionWait snapshots the admission-queue wait histogram (ns).
func (s *Server) AdmissionWait() *report.Histogram {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	h := s.admWait
	return &h
}

// Stats is a snapshot of the serving-front counters.
type Stats struct {
	Accepted  uint64 // connections ever accepted
	Conns     int    // currently open connections
	CmdGet    uint64 // get/gets commands
	CmdSet    uint64 // set/add commands
	CmdDelete uint64
	GetKeys   uint64 // keys requested across get/gets
	GetHits   uint64
	GetMisses uint64

	CoalescedGets    uint64 // single-key gets served in a shared batch (>= 2 wide)
	CoalescedBatches uint64 // batched protected ops issued by the coalescers
	CoalesceWidest   uint64 // widest batch observed
	ExecutorGets     uint64 // all gets served through the shard coalescers

	AdmissionWaits    uint64 // bursts that queued for a slot
	AdmissionTimeouts uint64 // bursts that gave up (SERVER_ERROR)
	ProtocolErrors    uint64 // ERROR/CLIENT_ERROR replies
}

// Stats aggregates the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	open := len(s.conns)
	s.mu.Unlock()
	st := Stats{
		Accepted:          s.accepted.Load(),
		Conns:             open,
		CmdGet:            s.cmdGet.Load(),
		CmdSet:            s.cmdSet.Load(),
		CmdDelete:         s.cmdDelete.Load(),
		GetKeys:           s.getKeys.Load(),
		GetHits:           s.getHits.Load(),
		AdmissionWaits:    s.g.Waits(),
		AdmissionTimeouts: s.admTimeos.Load(),
		ProtocolErrors:    s.protoErrs.Load(),
	}
	st.GetMisses = st.GetKeys - st.GetHits
	for _, c := range s.coal {
		st.CoalescedGets += c.coalesced.Load()
		st.CoalescedBatches += c.batches.Load()
		st.ExecutorGets += c.gets.Load()
		if w := c.maxSeen.Load(); w > st.CoalesceWidest {
			st.CoalesceWidest = w
		}
	}
	return st
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

// conn is one client connection: a goroutine, a codec, a result channel
// for coalesced gets, and per-connection accounting (the per-tenant
// groundwork: ops and bytes per connection, admission waits per burst).
type conn struct {
	id  uint64
	srv *Server
	nc  net.Conn
	cr  *Reader
	w   *bufio.Writer
	in  *countingReader
	out *countingWriter

	cmd  Command
	vbuf []byte // set/add payload scratch
	gbuf []byte // coalesced-get value scratch
	res  chan getResult

	th *core.GroupHandle // held only inside a burst

	// Counters read by stats from other goroutines.
	ops       atomic.Uint64
	gets      atomic.Uint64 // keys requested
	hits      atomic.Uint64
	sets      atomic.Uint64
	deletes   atomic.Uint64
	admWaits  atomic.Uint64 // bursts that acquired a thread
	admNanos  atomic.Uint64 // total admission wait
	coalesced atomic.Uint64 // single-key gets served via the coalescers
}

type countingReader struct {
	r io.Reader
	n atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n atomic.Uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

func newConn(s *Server, nc net.Conn) *conn {
	in := &countingReader{r: nc}
	out := &countingWriter{w: nc}
	return &conn{
		srv: s,
		nc:  nc,
		cr:  NewReader(in, s.st.MaxValueLen()),
		w:   bufio.NewWriterSize(out, 16<<10),
		in:  in,
		out: out,
		res: make(chan getResult, 1),
	}
}

// serve is the connection loop. The thread-lease discipline is the
// serving front's admission story: the goroutine blocks on the socket
// holding nothing; when a command arrives it processes every buffered
// command as one burst, leasing a thread on first need (blocking in the
// admission queue if the domain is saturated) and releasing it before
// blocking on the socket again. Idle connections are free; the live
// set of leases is capped at Config.Slots no matter how many
// connections exist.
func (c *conn) serve() {
	s := c.srv
	defer func() {
		c.dropThread()
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c.id)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	for {
		var err error
		c.vbuf, err = c.cr.ReadCommand(&c.cmd, c.vbuf)
		if err != nil {
			if !c.recoverProtocol(err) {
				return
			}
		} else if !c.dispatch() {
			return
		}
		// Burst boundary: nothing more is buffered, so flush replies and
		// return the thread lease before blocking on the socket.
		if c.cr.Buffered() == 0 {
			c.dropThread()
			if c.w.Flush() != nil {
				return
			}
		}
	}
}

// recoverProtocol answers a recoverable protocol error; false means the
// connection is unusable.
func (c *conn) recoverProtocol(err error) bool {
	s := c.srv
	var ce ClientError
	switch {
	case errors.As(err, &ce):
		s.protoErrs.Add(1)
		return c.reply("CLIENT_ERROR " + string(ce) + crlf)
	case errors.Is(err, ErrUnknownCommand):
		s.protoErrs.Add(1)
		return c.reply("ERROR" + crlf)
	case errors.Is(err, ErrValueTooLarge):
		s.protoErrs.Add(1)
		return c.reply("SERVER_ERROR object too large for cache" + crlf)
	default:
		return false // io error: peer gone or stream unrecoverable
	}
}

const crlf = "\r\n"

// dispatch executes one parsed command; false closes the connection.
func (c *conn) dispatch() bool {
	s := c.srv
	c.ops.Add(1)
	switch c.cmd.Op {
	case OpGet, OpGets:
		s.cmdGet.Add(1)
		return c.doGet(c.cmd.Op == OpGets)
	case OpSet, OpAdd:
		s.cmdSet.Add(1)
		return c.doSet(c.cmd.Op == OpAdd)
	case OpDelete:
		s.cmdDelete.Add(1)
		return c.doDelete()
	case OpStats:
		return c.doStats(c.cmd.StatsArg)
	case OpVersion:
		return c.reply("VERSION pop-serve 1.0" + crlf)
	default: // OpQuit
		c.w.Flush()
		return false
	}
}

// needThread leases the burst's group handle, queueing for admission
// if the group is saturated. nil with ok=true only on timeout (the
// command answers SERVER_ERROR and the connection lives on).
func (c *conn) needThread() (*core.GroupHandle, bool) {
	if c.th != nil {
		return c.th, true
	}
	s := c.srv
	start := time.Now()
	// A free slot costs no context and no timer; AcquireWait itself
	// starts with this same Acquire, so queue fairness is unchanged.
	th, err := s.g.Acquire()
	if errors.Is(err, core.ErrNoSlots) {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.AcquireTimeout)
		th, err = s.g.AcquireWait(ctx)
		cancel()
	}
	wait := time.Since(start)
	s.recordAdmission(wait)
	c.admNanos.Add(uint64(wait.Nanoseconds()))
	if err != nil {
		s.admTimeos.Add(1)
		return nil, true
	}
	c.admWaits.Add(1)
	c.th = th
	return th, true
}

// dropThread ends the burst, returning the lease to the admission pool.
func (c *conn) dropThread() {
	if c.th != nil {
		c.srv.g.Release(c.th)
		c.th = nil
	}
}

// doGet answers get/gets. Single-key gets go through the shard's
// coalescer — no thread lease of the connection's own, and connections
// contending for a shard share one protected operation. Multi-key gets
// hold the burst's own lease and go through Store.GetBatch directly
// (already one protected op per shard).
func (c *conn) doGet(withCas bool) bool {
	s := c.srv
	keys := c.cmd.Keys
	s.getKeys.Add(uint64(len(keys)))
	c.gets.Add(uint64(len(keys)))
	if len(keys) == 1 {
		c.coalesced.Add(1)
		r := s.coal[s.st.ShardIndex(keys[0])].get(keys[0], c.gbuf, c.res)
		c.gbuf = r.val[:0]
		if r.ok {
			s.getHits.Add(1)
			c.hits.Add(1)
			if !c.writeValue(keys[0], r.val, withCas) {
				return false
			}
		}
		return c.reply("END" + crlf)
	}
	th, _ := c.needThread()
	if th == nil {
		return c.reply("SERVER_ERROR admission queue timeout" + crlf)
	}
	var b store.Batch
	s.st.GetBatch(th, keys, &b)
	for i, k := range keys {
		if !b.OK[i] {
			continue
		}
		s.getHits.Add(1)
		c.hits.Add(1)
		if !c.writeValue(k, b.Vals[i], withCas) {
			return false
		}
	}
	return c.reply("END" + crlf)
}

// writeValue emits one VALUE block. Flags are always 0 (accepted on
// set, not stored); gets serves cas 0 (cas is not supported).
func (c *conn) writeValue(key string, val []byte, withCas bool) bool {
	c.w.WriteString("VALUE ")
	c.w.WriteString(key)
	if withCas {
		fmt.Fprintf(c.w, " 0 %d 0%s", len(val), crlf)
	} else {
		fmt.Fprintf(c.w, " 0 %d%s", len(val), crlf)
	}
	c.w.Write(val)
	_, err := c.w.WriteString(crlf)
	return err == nil
}

func (c *conn) doSet(ifAbsent bool) bool {
	s := c.srv
	th, _ := c.needThread()
	if th == nil {
		return c.cmd.Noreply || c.reply("SERVER_ERROR admission queue timeout"+crlf)
	}
	c.sets.Add(1)
	key := c.cmd.Keys[0]
	stored := true
	if ifAbsent {
		stored = s.st.PutIfAbsent(th, key, c.vbuf)
	} else {
		s.st.Put(th, key, c.vbuf)
	}
	if c.cmd.Noreply {
		return true
	}
	if stored {
		return c.reply("STORED" + crlf)
	}
	return c.reply("NOT_STORED" + crlf)
}

func (c *conn) doDelete() bool {
	s := c.srv
	th, _ := c.needThread()
	if th == nil {
		return c.cmd.Noreply || c.reply("SERVER_ERROR admission queue timeout"+crlf)
	}
	c.deletes.Add(1)
	ok := s.st.Delete(th, c.cmd.Keys[0])
	if c.cmd.Noreply {
		return true
	}
	if ok {
		return c.reply("DELETED" + crlf)
	}
	return c.reply("NOT_FOUND" + crlf)
}

func (c *conn) reply(s string) bool {
	_, err := c.w.WriteString(s)
	return err == nil
}

// doStats answers the stats command:
//
//	stats            global serving counters, coalescing, admission
//	                 tails, store + reclamation + lifecycle aggregates
//	stats conns      per-connection op/byte/admission counters
//	stats slots      per-slot lease counts (Lifecycle.SlotLeases)
//	stats telemetry  live-sampler view: stall episodes, ping-ack and
//	                 pass-duration tails, last-window deltas
//	stats reset      rebase the attached sampler (replies RESET)
func (c *conn) doStats(arg string) bool {
	s := c.srv
	emit := func(name string, format string, args ...any) {
		c.w.WriteString("STAT ")
		c.w.WriteString(name)
		c.w.WriteByte(' ')
		fmt.Fprintf(c.w, format, args...)
		c.w.WriteString(crlf)
	}
	switch arg {
	case "":
		st := s.Stats()
		lc := s.g.Lifecycle()
		ss := s.st.Stats()
		// The same counter words /metrics and the sampler load: exact
		// and race-free while connections are mid-burst.
		rs := s.g.ReclaimStats()
		adm := s.AdmissionWait()
		emit("uptime_s", "%.1f", time.Since(s.started).Seconds())
		emit("curr_connections", "%d", st.Conns)
		emit("total_connections", "%d", st.Accepted)
		emit("cmd_get", "%d", st.CmdGet)
		emit("cmd_set", "%d", st.CmdSet)
		emit("cmd_delete", "%d", st.CmdDelete)
		emit("get_keys", "%d", st.GetKeys)
		emit("get_hits", "%d", st.GetHits)
		emit("get_misses", "%d", st.GetMisses)
		emit("protocol_errors", "%d", st.ProtocolErrors)
		emit("coalesced_gets", "%d", st.CoalescedGets)
		emit("coalesced_batches", "%d", st.CoalescedBatches)
		emit("coalesce_widest", "%d", st.CoalesceWidest)
		emit("executor_gets", "%d", st.ExecutorGets)
		emit("slots", "%d", s.cfg.Slots)
		emit("slots_inuse", "%d", s.g.InUse())
		emit("slots_peak", "%d", s.g.Peak())
		emit("admission_queue", "%d", s.g.Waiting())
		emit("admission_waits", "%d", st.AdmissionWaits)
		emit("admission_timeouts", "%d", st.AdmissionTimeouts)
		emit("admission_wait_p50_us", "%.1f", adm.Quantile(0.50)/1e3)
		emit("admission_wait_p99_us", "%.1f", adm.Quantile(0.99)/1e3)
		emit("admission_wait_max_us", "%.1f", float64(adm.Max())/1e3)
		emit("store_gets", "%d", ss.Gets)
		emit("store_puts", "%d", ss.Puts)
		emit("store_overwrites", "%d", ss.Overwrites)
		emit("store_batches", "%d", ss.Batches)
		emit("store_stale_reads", "%d", ss.StaleReads)
		emit("policy", "%v", s.g.Policy())
		emit("domain_groups", "%d", s.g.Members())
		emit("unreclaimed", "%d", s.g.Unreclaimed())
		emit("reclaim_passes", "%d", rs.Passes)
		emit("reclaim_pings_per_pass", "%.1f", rs.PingsPerPass)
		emit("reclaim_scanned_per_pass", "%.1f", rs.ScannedPerPass)
		emit("lifecycle_slots", "%d", lc.Slots)
		emit("lifecycle_leased", "%d", lc.Leased)
		emit("lifecycle_peak", "%d", lc.Peak)
		emit("lifecycle_releases", "%d", lc.Releases)
		emit("orphans_donated", "%d", lc.OrphansDonated)
		emit("orphans_adopted", "%d", lc.OrphansAdopted)
	case "conns":
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for _, cc := range s.conns {
			conns = append(conns, cc)
		}
		s.mu.Unlock()
		sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
		for _, cc := range conns {
			p := fmt.Sprintf("conn.%d.", cc.id)
			emit(p+"ops", "%d", cc.ops.Load())
			emit(p+"get_keys", "%d", cc.gets.Load())
			emit(p+"get_hits", "%d", cc.hits.Load())
			emit(p+"sets", "%d", cc.sets.Load())
			emit(p+"deletes", "%d", cc.deletes.Load())
			emit(p+"coalesced_gets", "%d", cc.coalesced.Load())
			emit(p+"bytes_in", "%d", cc.in.n.Load())
			emit(p+"bytes_out", "%d", cc.out.n.Load())
			emit(p+"admissions", "%d", cc.admWaits.Load())
			emit(p+"admission_wait_us", "%d", cc.admNanos.Load()/1e3)
		}
	case "slots":
		lc := s.g.Lifecycle()
		for i, n := range lc.SlotLeases {
			emit(fmt.Sprintf("slot.%d.leases", i), "%d", n)
		}
	case "telemetry":
		t := s.sampler.Load()
		if t == nil {
			emit("telemetry_enabled", "%d", 0)
			break
		}
		emit("telemetry_enabled", "%d", 1)
		tl := t.Snapshot()
		emit("sample_every_ms", "%.1f", float64(tl.Every)/1e6)
		emit("samples", "%d", len(tl.Samples))
		emit("samples_dropped", "%d", tl.Dropped)
		active := 0
		for _, ev := range tl.Stalls {
			if !ev.Recovered {
				active++
			}
		}
		emit("stalled_readers", "%d", active)
		emit("stall_episodes", "%d", len(tl.Stalls))
		emit("ping_ack_count", "%d", tl.PingAck.Count())
		emit("ping_ack_p50_us", "%.1f", tl.PingAck.Quantile(0.50)/1e3)
		emit("ping_ack_p99_us", "%.1f", tl.PingAck.Quantile(0.99)/1e3)
		emit("pass_count", "%d", tl.PassDur.Count())
		emit("pass_p99_us", "%.1f", tl.PassDur.Quantile(0.99)/1e3)
		emit("unreclaimed", "%d", tl.FinalUnrec)
		if n := len(tl.Samples); n > 0 {
			last := tl.Samples[n-1]
			emit("window_ops", "%d", last.Ops)
			emit("window_frees", "%d", last.Stats.Frees)
			emit("window_pings", "%d", last.Stats.PingsSent)
			emit("window_stalled", "%d", last.Stalled)
		}
		for _, ev := range tl.Stalls {
			state := "open"
			if ev.Recovered {
				state = "recovered"
			}
			emit(fmt.Sprintf("stall.m%d.s%d.i%d", ev.Member, ev.Slot, ev.Incarnation),
				"%s %s %.1fms", ev.Kind, state, float64(ev.Age)/1e6)
		}
	case "reset":
		// memcached-style counter reset, scoped to the live sampler:
		// rebase it so subsequent "stats telemetry" deltas start now.
		if t := s.sampler.Load(); t != nil {
			t.Reset()
		}
		return c.reply("RESET" + crlf)
	default:
		c.srv.protoErrs.Add(1)
		return c.reply("CLIENT_ERROR unknown stats argument" + crlf)
	}
	return c.reply("END" + crlf)
}
