package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler returns the telemetry HTTP mux:
//
//	/metrics          Prometheus text exposition (counters read live at
//	                  scrape time, so successive scrapes advance mid-run)
//	/timeline         the sampler's Snapshot() as JSON
//	/debug/pprof/...  net/http/pprof (profile, heap, goroutine, trace, ...)
//
// Counters are namespaced pop_*. The handler holds no state of its
// own; everything comes from the sampler's source at request time.
func (s *Sampler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/timeline", s.serveTimeline)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the telemetry endpoint on addr (host:port; :0 picks a
// free port) and returns the bound address. The server runs until the
// listener is closed via the returned shutdown func.
func (s *Sampler) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

func (s *Sampler) serveTimeline(w http.ResponseWriter, r *http.Request) {
	tl := s.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&tl)
}

// serveMetrics writes Prometheus text exposition format v0.0.4. All
// cumulative values are read from the live source (not the sample
// ring), so two scrapes taken mid-run always differ when work happened
// between them.
func (s *Sampler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.src
	extras := s.cfg.Extras
	names := append([]string(nil), s.extraNames...)
	stallEpisodes := len(s.stalls)
	active := 0
	for _, st := range s.slots {
		if st.eventIdx != 0 && !s.stalls[st.eventIdx-1].Recovered {
			active++
		}
	}
	s.mu.Unlock()

	st := src.Stats()
	lc := src.Lifecycle()
	ack := src.PingAckHist()
	pass := src.PassDurHist()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("pop_retires_total", "Nodes retired.", st.Retires)
	counter("pop_frees_total", "Nodes freed by reclamation.", st.Frees)
	counter("pop_reclaim_passes_total", "Reclamation passes.", st.Reclaims)
	counter("pop_epoch_reclaims_total", "EpochPOP fast-path (epoch) passes.", st.EpochReclaims)
	counter("pop_pop_reclaims_total", "EpochPOP escalation (publish-on-ping) passes.", st.POPReclaims)
	counter("pop_pings_sent_total", "Publish-on-ping / neutralization pings sent.", st.PingsSent)
	counter("pop_threads_scanned_total", "Thread slots scanned during passes.", st.ThreadsScanned)
	counter("pop_publishes_total", "Ping-triggered reservation publishes.", st.Publishes)
	counter("pop_restarts_total", "NBR neutralization restarts.", st.Restarts)
	gauge("pop_max_retire_list", "High-water mark of any thread's retire list.", int64(st.MaxRetire))
	gauge("pop_unreclaimed_nodes", "Nodes allocated but not yet freed.", src.Unreclaimed())
	gauge("pop_slots_leased", "Thread slots currently leased.", int64(lc.Leased))
	gauge("pop_slots_peak", "Peak concurrently leased slots.", int64(lc.Peak))
	counter("pop_slot_releases_total", "Thread slot releases.", lc.Releases)
	gauge("pop_stalled_readers", "Slots currently flagged by the stalled-reader detector.", int64(active))
	counter("pop_stall_episodes_total", "Stalled-reader episodes observed.", uint64(stallEpisodes))
	histo := func(name, help string, h interface {
		Count() uint64
		Quantile(float64) float64
		Max() int64
	}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), h.Quantile(q)/1e9)
		}
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count())
		fmt.Fprintf(&b, "%s_max_seconds %g\n", name, float64(h.Max())/1e9)
	}
	histo("pop_ping_ack_seconds", "Ping broadcast to last ack, per pass that pinged.", &ack)
	histo("pop_pass_duration_seconds", "Whole reclamation pass duration.", &pass)
	if extras != nil {
		vals := extras.ReadExtras(nil)
		for i, name := range names {
			if i >= len(vals) {
				break
			}
			counter("pop_"+name+"_total", "Host counter "+name+".", vals[i])
		}
	}
	w.Write([]byte(b.String()))
}
