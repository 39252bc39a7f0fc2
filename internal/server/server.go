package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/core"
	"pop/internal/padded"
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
	// Slots is the connection-admission budget: how many bursts may
	// hold a thread lease at once (default 8). Bursts beyond it queue,
	// FIFO, for at most AcquireTimeout. The domain group is sized at
	// Slots plus one dedicated slot per shard handle, so a lone get
	// never competes with admission.
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
	// AcquireTimeout bounds one burst's wait in the admission queue
	// (default 10s); a timed-out command answers SERVER_ERROR and the
	// connection stays up.
	AcquireTimeout time.Duration
	// ExtraSlots reserves additional group slots for tenants outside
	// the serving path — fault injectors running against Store()
	// directly. It only sizes the group; the admission budget stays
	// exactly Slots.
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
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 10 * time.Second
	}
	return c
}

// Server is a memcached-text serving front over one Store. Create with
// New, start with Start, stop with Close.
type Server struct {
	cfg    Config
	g      *core.DomainGroup
	st     *store.Store
	shards []shard

	ln      net.Listener
	started time.Time
	closed  atomic.Bool
	connWG  sync.WaitGroup // accept loop + connection goroutines

	mu     sync.Mutex
	conns  map[uint64]*conn
	nextID uint64

	// adm is the admission semaphore: a running burst holds one of its
	// Slots tokens. Blocked senders are served in arrival order, so
	// queued bursts are admitted FIFO and a newcomer cannot jump them.
	adm      chan struct{}
	admPeak  atomic.Int64 // most tokens held at once
	admQueue atomic.Int64 // bursts blocked on adm now
	admWaits atomic.Uint64
	admWait  report.AtomicHistogram // admission-queue wait per burst (ns)

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

// shard is one store shard's lone-get path: a group handle leased in
// New and released in Close, used by whichever connection goroutine
// holds mu. The mutex is the happens-before edge that hands the
// handle's owner-only state from one get to the next, and a get holds
// it only across its Store.Get, so the handle is never mid-operation
// at a hand-over. The handle takes no admission token: a lone get
// never queues behind Slots, and the handles never show in
// slots_inuse.
type shard struct {
	mu   sync.Mutex
	h    *core.GroupHandle
	gets atomic.Uint64          // lone gets served on h
	_    [padded.CacheLine]byte // neighbouring shards' locks on other lines
}

// New builds the domain group, the store, and one get handle per
// shard. The shard handles' group-slot leases are taken here and held
// outside the admission budget.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Resolve the layout the way the store will: the group must hold
	// Slots + shards slots.
	shards, groups, err := store.Layout(cfg.Store.Shards, cfg.Groups)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	cfg.Store.Shards = shards

	g := core.NewDomainGroup(cfg.Policy, groups, cfg.Slots+shards+cfg.ExtraSlots, cfg.Opts)
	st, err := store.New(g, cfg.Store)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		g:      g,
		st:     st,
		shards: make([]shard, shards),
		conns:  make(map[uint64]*conn),
		adm:    make(chan struct{}, cfg.Slots),
	}
	// One dedicated handle per shard, held until Close. Serving only its
	// shard, a handle only ever leases that shard's member domain thread,
	// so a lone get never widens another member's ping fan-out.
	for i := range s.shards {
		h, err := g.Acquire()
		if err != nil {
			s.releaseShards()
			return nil, fmt.Errorf("server: shard handle lease: %w", err)
		}
		s.shards[i].h = h
	}
	return s, nil
}

// SetTelemetry attaches a live sampler (normally built over Group()
// with the server itself as telemetry.ExtrasSource). Once attached,
// "stats telemetry" reports its snapshot and "stats reset" rebases it.
// The caller owns the sampler's Start/Stop lifecycle.
func (s *Server) SetTelemetry(t *telemetry.Sampler) { s.sampler.Store(t) }

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
// connection goroutines to finish their in-flight command (a get holds
// its shard's mutex only across Store.Get, so it always finishes), then
// returns the shard handles' thread leases. After Close,
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
	s.releaseShards()
	return err
}

// releaseShards returns the shard handles. No get can be running:
// connWG.Wait ordered every connection's last Unlock before this.
func (s *Server) releaseShards() {
	for i := range s.shards {
		if h := s.shards[i].h; h != nil {
			s.g.Release(h)
		}
	}
}

// AdmissionWait snapshots the admission-queue wait histogram (ns).
func (s *Server) AdmissionWait() *report.Histogram {
	h := s.admWait.Snapshot()
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

	ExecutorGets uint64 // single-key gets served on the shard handles

	// Deprecated: always 0; nothing batches single-key gets any more.
	// Kept only because bench/traced.go:188–189 still reads them; they
	// go with those two rungs (ROADMAP item 1(a)).
	CoalescedGets, CoalescedBatches uint64

	AdmissionWaits    uint64 // bursts that queued for a slot
	AdmissionTimeouts uint64 // bursts that gave up (SERVER_ERROR)
	ProtocolErrors    uint64 // ERROR/CLIENT_ERROR replies
}

// Stats aggregates the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	open := len(s.conns)
	s.mu.Unlock()
	// Hits load before keys: a get adds its keys before (in program
	// order) any hit it counts, so every hit this load sees has its key
	// add visible to the later keys load, and GetMisses cannot wrap.
	hits := s.getHits.Load()
	st := Stats{
		Accepted:          s.accepted.Load(),
		Conns:             open,
		CmdGet:            s.cmdGet.Load(),
		CmdSet:            s.cmdSet.Load(),
		CmdDelete:         s.cmdDelete.Load(),
		GetKeys:           s.getKeys.Load(),
		GetHits:           hits,
		AdmissionWaits:    s.admWaits.Load(),
		AdmissionTimeouts: s.admTimeos.Load(),
		ProtocolErrors:    s.protoErrs.Load(),
	}
	st.GetMisses = st.GetKeys - st.GetHits
	for i := range s.shards {
		st.ExecutorGets += s.shards[i].gets.Load()
	}
	return st
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

// conn is one client connection: a goroutine, a codec, reply scratch,
// and per-connection accounting (the per-tenant groundwork: ops and
// bytes per connection, admission waits per burst).
type conn struct {
	id  uint64
	srv *Server
	nc  net.Conn
	cr  *Reader
	w   *bufio.Writer
	in  *socketReader
	out *countingWriter

	cmd   Command
	vbuf  []byte      // set/add payload scratch
	gbuf  []byte      // lone-get value scratch
	batch store.Batch // multi-key get scratch

	th *core.GroupHandle // held only inside a burst

	// Counters read by stats from other goroutines.
	ops      atomic.Uint64
	gets     atomic.Uint64 // keys requested
	hits     atomic.Uint64
	sets     atomic.Uint64
	deletes  atomic.Uint64
	admWaits atomic.Uint64 // bursts that acquired a thread
	admNanos atomic.Uint64 // total admission wait
}

// socketReader is the codec's only way to the socket, and so the
// burst boundary: before any socket read — the codec has decoded every
// whole command it buffered, and may hold a fragment of the next — the
// connection returns its lease and flushes the replies it owes. A
// connection never blocks on its client holding a slot or withholding
// an answer.
type socketReader struct {
	c *conn
	n atomic.Uint64
}

func (r *socketReader) Read(p []byte) (int, error) {
	r.c.dropThread()
	if err := r.c.w.Flush(); err != nil {
		return 0, err
	}
	n, err := r.c.nc.Read(p)
	r.n.Add(uint64(n))
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
	out := &countingWriter{w: nc}
	c := &conn{
		srv: s,
		nc:  nc,
		w:   bufio.NewWriterSize(out, 16<<10),
		out: out,
	}
	c.in = &socketReader{c: c}
	c.cr = NewReader(c.in, s.st.MaxValueLen())
	return c
}

// serve is the connection loop. The thread-lease discipline is the
// serving front's admission story: the goroutine reads from the socket
// holding nothing; the commands one read delivers run as one burst,
// leasing a thread on first need (queueing for an admission token if
// Config.Slots bursts are running) and releasing it, with the replies
// flushed, before the next socket read (socketReader). Idle connections
// are free; the live set of burst leases is capped at Config.Slots no
// matter how many connections exist.
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

var errAdmissionTimeout = errors.New("admission queue timeout")

// admit takes an admission token for a burst. A free token costs no
// timer; otherwise the burst queues, counted as a wait, for at most
// AcquireTimeout. false means it timed out.
func (s *Server) admit() bool {
	select {
	case s.adm <- struct{}{}:
		return true
	default:
	}
	s.admWaits.Add(1)
	s.admQueue.Add(1)
	defer s.admQueue.Add(-1)
	t := time.NewTimer(s.cfg.AcquireTimeout)
	defer t.Stop()
	select {
	case s.adm <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// needThread leases the burst's group handle once the burst is
// admitted; on error the command answers SERVER_ERROR and the
// connection lives on.
func (c *conn) needThread() (*core.GroupHandle, error) {
	if c.th != nil {
		return c.th, nil
	}
	s := c.srv
	start := time.Now()
	admitted := s.admit()
	wait := time.Since(start)
	s.admWait.Record(wait.Nanoseconds())
	c.admNanos.Add(uint64(wait.Nanoseconds()))
	if !admitted {
		s.admTimeos.Add(1)
		return nil, errAdmissionTimeout
	}
	held := int64(len(s.adm)) // admPeak = max(admPeak, held)
	for p := s.admPeak.Load(); held > p && !s.admPeak.CompareAndSwap(p, held); p = s.admPeak.Load() {
	}
	// A token guarantees a slot unless out-of-band tenants lease past
	// ExtraSlots.
	th, err := s.g.Acquire()
	if err != nil {
		<-s.adm
		return nil, err
	}
	c.admWaits.Add(1)
	c.th = th
	return th, nil
}

// dropThread ends the burst: the handle goes back to the group, then
// the token to the head of the admission queue.
func (c *conn) dropThread() {
	if c.th != nil {
		c.srv.g.Release(c.th)
		c.th = nil
		<-c.srv.adm
	}
}

// doGet answers get/gets. A single-key get runs on its shard's handle
// under the shard's mutex — no thread lease of the connection's own, so
// it never queues for admission. Multi-key gets hold the burst's own
// lease and go through Store.GetBatch (one protected op per member).
func (c *conn) doGet(withCas bool) bool {
	s := c.srv
	keys := c.cmd.Keys
	s.getKeys.Add(uint64(len(keys)))
	c.gets.Add(uint64(len(keys)))
	if len(keys) == 1 {
		val, ok := s.get(keys[0], c.gbuf)
		c.gbuf = val[:0]
		if ok {
			s.getHits.Add(1)
			c.hits.Add(1)
			if !c.writeValue(keys[0], val, withCas) {
				return false
			}
		}
		return c.reply("END" + crlf)
	}
	th, err := c.needThread()
	if err != nil {
		return c.reply("SERVER_ERROR " + err.Error() + crlf)
	}
	b := &c.batch
	s.st.GetBatch(th, keys, b)
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

// get answers a single-key get on the key's shard handle, copying the
// value into buf[:0] (Store.Get).
func (s *Server) get(key string, buf []byte) ([]byte, bool) {
	sh := &s.shards[s.st.ShardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gets.Add(1)
	return s.st.Get(sh.h, key, buf)
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
	th, err := c.needThread()
	if err != nil {
		return c.cmd.Noreply || c.reply("SERVER_ERROR "+err.Error()+crlf)
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
	th, err := c.needThread()
	if err != nil {
		return c.cmd.Noreply || c.reply("SERVER_ERROR "+err.Error()+crlf)
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
//	stats            global serving counters, shard-handle gets, admission
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
		emit("executor_gets", "%d", st.ExecutorGets)
		emit("slots", "%d", s.cfg.Slots)
		emit("slots_inuse", "%d", len(s.adm))
		emit("slots_peak", "%d", s.admPeak.Load())
		emit("group_slots_inuse", "%d", s.g.InUse())
		emit("admission_queue", "%d", s.admQueue.Load())
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
