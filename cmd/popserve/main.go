// Command popserve runs the wire-protocol serving front: a TCP server
// speaking a memcached-text subset (get/gets multi-key, set, add,
// delete, stats, quit, version) over the sharded POP-reclaimed KV
// store. Connections are admission-controlled — at most -slots bursts
// execute at once, the rest queue FIFO on the server's admission
// semaphore for up to -timeout — and a single-key get runs on its
// shard's own handle, outside the admission budget. -backing picks the
// per-shard structure: hmht (the hash table, the store's default), skl
// (the lock-free skiplist) or abt (the (a,b)-tree).
//
// Examples:
//
//	popserve -addr :11311 -policy EpochPOP -slots 8
//	popserve -policy HazardPtrPOP -backing skl -shards 16
//	printf 'set greet 0 0 5\r\nhello\r\nget greet\r\nquit\r\n' | nc 127.0.0.1 11311
//
// On SIGINT/SIGTERM the server drains connections, releases every
// thread lease, and prints the final stats snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pop/internal/core"
	"pop/internal/server"
	"pop/internal/store"
	"pop/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11311", "TCP listen address")
		policy   = flag.String("policy", "EpochPOP", "reclamation policy (see popbench -list for names)")
		slots    = flag.Int("slots", 8, "admission slots: connection bursts executing at once")
		shards   = flag.Int("shards", 8, "store shard count (power of two)")
		groups   = flag.Int("groups", 1, "reclamation domain members the shards split across (power of two, <= shards)")
		backing  = flag.String("backing", store.BackingHashTable, "per-shard structure (hmht, skl, abt)")
		timeout  = flag.Duration("timeout", 10*time.Second, "admission-queue wait bound per burst")
		maxValue = flag.Int("maxvalue", 0, "value size cap in bytes (0 = arena default)")
		metrics  = flag.String("metrics", "", "telemetry HTTP address serving /metrics, /timeline and /debug/pprof (e.g. 127.0.0.1:9090; empty disables the endpoint)")
		sample   = flag.Duration("sample", 100*time.Millisecond, "telemetry sampling interval (stats telemetry / timeline resolution)")
		smoke    = flag.Bool("smoke", false, "self-test: start, serve one scripted session in-process, verify, exit")
	)
	flag.Parse()

	p, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserve: %v\n", err)
		os.Exit(2)
	}
	cfg := server.Config{
		Addr:   *addr,
		Policy: p,
		Slots:  *slots,
		Groups: *groups,
		Store: store.Config{
			Shards:      *shards,
			Backing:     *backing,
			MaxValueLen: *maxValue,
		},
		AcquireTimeout: *timeout,
	}
	if *smoke {
		cfg.Addr = "127.0.0.1:0"
		// Small enough that the smoke's set burst must trigger passes.
		cfg.Opts = &core.Options{ReclaimThreshold: smokeReclaimThreshold}
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserve: %v\n", err)
		os.Exit(1)
	}
	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "popserve: %v\n", err)
		os.Exit(1)
	}
	// The live sampler always runs (it powers "stats telemetry" and
	// "stats reset" even without the HTTP endpoint); -metrics
	// additionally exposes it over HTTP with pprof alongside.
	tsampler := telemetry.NewSampler(s.Group(), telemetry.Config{
		Every:  *sample,
		Extras: s,
	})
	tsampler.Start()
	s.SetTelemetry(tsampler)
	defer tsampler.Stop()
	maddr := ""
	if *metrics != "" {
		var stopMetrics func() error
		maddr, stopMetrics, err = tsampler.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popserve: metrics: %v\n", err)
			s.Close()
			os.Exit(1)
		}
		defer stopMetrics()
	}
	if *smoke {
		if err := smokeTest(s); err != nil {
			fmt.Fprintf(os.Stderr, "popserve: smoke: %v\n", err)
			s.Close()
			os.Exit(1)
		}
		if maddr != "" {
			if err := metricsSmoke(maddr, s); err != nil {
				fmt.Fprintf(os.Stderr, "popserve: metrics smoke: %v\n", err)
				s.Close()
				os.Exit(1)
			}
		}
		if err := shutdown(s); err != nil {
			fmt.Fprintf(os.Stderr, "popserve: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("popserve: smoke OK")
		return
	}
	fmt.Printf("popserve: %v policy, %d slots, %d×%s shards over %d domain members, listening on %s\n",
		p, *slots, *shards, *backing, s.Group().Members(), s.Addr())
	if maddr != "" {
		fmt.Printf("popserve: telemetry on http://%s/metrics (timeline: /timeline, pprof: /debug/pprof/)\n", maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("popserve: shutting down")
	if err := shutdown(s); err != nil {
		fmt.Fprintf(os.Stderr, "popserve: %v\n", err)
		os.Exit(1)
	}
}

// shutdown closes the server, verifies the lease drain, and prints the
// final counters.
func shutdown(s *server.Server) error {
	st := s.Stats()
	if err := s.Close(); err != nil {
		return err
	}
	lc := s.Group().Lifecycle()
	adm := s.AdmissionWait()
	fmt.Printf("popserve: served %d gets (%d hits), %d sets, %d deletes over %d connections\n",
		st.CmdGet, st.GetHits, st.CmdSet, st.CmdDelete, st.Accepted)
	fmt.Printf("popserve: admission: %d waits, %d timeouts, p99 wait %.1fµs\n",
		st.AdmissionWaits, st.AdmissionTimeouts, adm.Quantile(0.99)/1e3)
	if lc.Leased != 0 {
		return fmt.Errorf("%d thread leases leaked after shutdown", lc.Leased)
	}
	fmt.Printf("popserve: clean shutdown — %d slot leases over the run, none leaked\n", lc.Releases)
	return nil
}
