package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"pop/internal/server"
)

// smokeTest drives one scripted client session against the live server
// and checks every reply — the CI self-test behind -smoke.
func smokeTest(s *server.Server) error {
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	send := func(cmd string) error {
		_, err := io.WriteString(nc, cmd)
		return err
	}
	expect := func(want string) error {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("reading reply: %w", err)
		}
		if got := strings.TrimRight(line, "\r\n"); got != want {
			return fmt.Errorf("got %q, want %q", got, want)
		}
		return nil
	}
	steps := []struct{ send, want string }{
		{"set greet 0 0 5\r\nhello\r\n", "STORED"},
		{"add greet 0 0 2\r\nno\r\n", "NOT_STORED"},
		{"get greet\r\n", "VALUE greet 0 5"},
		{"", "hello"},
		{"", "END"},
		{"gets greet missing\r\n", "VALUE greet 0 5 0"},
		{"", "hello"},
		{"", "END"},
		{"delete greet\r\n", "DELETED"},
		{"delete greet\r\n", "NOT_FOUND"},
		{"bogus\r\n", "ERROR"},
	}
	for i, st := range steps {
		if st.send != "" {
			if err := send(st.send); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		}
		if err := expect(st.want); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	// The stats surface must be present and well-formed.
	if err := send("stats\r\n"); err != nil {
		return err
	}
	saw := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("reading stats: %w", err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			return fmt.Errorf("bad stats line %q", l)
		}
		saw++
	}
	if saw < 10 {
		return fmt.Errorf("stats emitted only %d lines", saw)
	}
	if err := send("quit\r\n"); err != nil {
		return err
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return fmt.Errorf("connection alive after quit: %v", err)
	}
	return nil
}

// smokeReclaimThreshold is the retire threshold -smoke runs with.
const smokeReclaimThreshold = 64

// metricsSmoke exercises the -metrics endpoint: scrape /metrics, push
// traffic through the text protocol, scrape again, and require the
// command counters to have advanced between the two scrapes — and the
// reclamation pass counter too: every set below is a burst of its own
// (lease, overwrite, release), so passes only run if releases carry
// their retires forward. It also checks /timeline decodes as JSON and
// "stats telemetry" answers over the wire.
func metricsSmoke(maddr string, s *server.Server) error {
	before, err := scrapeMetrics(maddr)
	if err != nil {
		return err
	}
	for _, name := range []string{"pop_cmd_get_total", "pop_conns_accepted_total", "pop_slot_releases_total"} {
		if _, ok := before[name]; !ok {
			return fmt.Errorf("first scrape missing %s", name)
		}
	}
	// Generate traffic between the scrapes.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	for i := 0; i < 4*smokeReclaimThreshold; i++ {
		if _, err := io.WriteString(nc, "set mk 0 0 3\r\nabc\r\n"); err != nil {
			return err
		}
		if line, _ := r.ReadString('\n'); strings.TrimRight(line, "\r\n") != "STORED" {
			return fmt.Errorf("set for metrics traffic not stored: %q", line)
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := io.WriteString(nc, "get mk\r\n"); err != nil {
			return err
		}
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return fmt.Errorf("metrics traffic get: %w", err)
			}
			if strings.TrimRight(line, "\r\n") == "END" {
				break
			}
		}
	}
	// The wire-level telemetry section must answer too.
	if _, err := io.WriteString(nc, "stats telemetry\r\n"); err != nil {
		return err
	}
	sawTel := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stats telemetry: %w", err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			return fmt.Errorf("bad stats telemetry line %q", l)
		}
		sawTel++
	}
	if sawTel < 5 {
		return fmt.Errorf("stats telemetry emitted only %d lines", sawTel)
	}
	after, err := scrapeMetrics(maddr)
	if err != nil {
		return err
	}
	for _, name := range []string{"pop_cmd_get_total", "pop_get_hits_total", "pop_reclaim_passes_total"} {
		if after[name] <= before[name] {
			return fmt.Errorf("%s did not advance between scrapes (%g -> %g)",
				name, before[name], after[name])
		}
	}
	// /timeline must be well-formed JSON with the sampling interval set.
	resp, err := http.Get("http://" + maddr + "/timeline")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tl struct {
		Every int64 `json:"every_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return fmt.Errorf("decoding /timeline: %w", err)
	}
	if tl.Every <= 0 {
		return fmt.Errorf("/timeline every_ns = %d, want > 0", tl.Every)
	}
	return nil
}

// scrapeMetrics fetches /metrics and parses every non-labelled sample
// line into a name -> value map.
func scrapeMetrics(maddr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		vals[name] = f
	}
	return vals, sc.Err()
}
