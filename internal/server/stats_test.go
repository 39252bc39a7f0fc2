package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/store"
)

// TestConnCountsFoldEveryCount fails when a count of the connection
// block is left out of the fold at close or of the server's sum: a
// closing connection's block, every count set to a distinct value, must
// fold into the closed-connection totals whole, and the server's sum
// must add every count of an open block to them.
func TestConnCountsFoldEveryCount(t *testing.T) {
	s, err := New(Config{Slots: 1, Store: store.Config{Shards: 1, ExpectedKeysPerShard: 64}})
	if err != nil {
		t.Fatal(err)
	}
	open, closing := &conn{id: 1, srv: s}, &conn{id: 2, srv: s}
	for i := range numCounts {
		open.counts[i].Add(uint64(100 + i))
		closing.counts[i].Add(uint64(1000 + 7*i))
	}
	s.conns[open.id], s.conns[closing.id] = open, closing

	s.leave(closing)
	sum, conns := s.totals()
	if conns != 1 {
		t.Errorf("totals counted %d open connections, want 1", conns)
	}
	for i := range numCounts {
		if got, want := s.closedCounts[i].Load(), uint64(1000+7*i); got != want {
			t.Errorf("closed count %d = %d after the fold, want the closing block's %d", i, got, want)
		}
		if got, want := sum[i].Load(), uint64(100+i)+uint64(1000+7*i); got != want {
			t.Errorf("summed count %d = %d, want open plus closed %d", i, got, want)
		}
	}
	delete(s.conns, open.id) // it has no socket for Close to sever
	s.Close()
}

// TestServerStatsSurviveClose runs one script on each of several
// connections at once — a lone get that hits and one that misses, a
// 3-key get with two hits, a set, an add that fails, a delete that hits
// and one that misses, and an unknown command — then closes half the
// connections before a Stats read and half after. Every Stats field
// must equal its exact total both times: a connection's counts fold
// into the closed totals as it leaves, neither lost nor counted twice.
// The open connections' "stats conns" lines plus the closed totals
// must add up to the server's.
func TestServerStatsSurviveClose(t *testing.T) {
	const conns = 6
	s := startServer(t, Config{
		Policy: core.EpochPOP,
		Slots:  conns, // no burst ever queues: AdmissionWaits stays 0
		Store:  store.Config{Shards: 2, MaxValueLen: 64},
	})
	h, err := s.Group().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.Store().Put(h, "a", []byte("va"))
	s.Store().Put(h, "b", []byte("vb"))
	s.Group().Release(h)

	cs := make([]*testClient, conns)
	for i := range cs {
		cs[i] = dialServer(t, s)
	}
	// Every client writes its whole script first, so the connections
	// run it concurrently; the replies are read afterwards.
	for i, c := range cs {
		c.send(fmt.Sprintf("get a\r\nget nope\r\nget a b nope\r\n"+
			"set k%d 0 0 1\r\nx\r\nadd a 0 0 1\r\ny\r\n"+
			"delete k%[1]d\r\ndelete k%[1]d\r\nbogus\r\n", i))
	}
	for _, c := range cs {
		if got := c.readValues(); len(got) != 1 || got["a"] != "va" {
			t.Fatalf("get a = %q", got)
		}
		if got := c.readValues(); len(got) != 0 {
			t.Fatalf("get nope = %q", got)
		}
		if got := c.readValues(); len(got) != 2 || got["a"] != "va" || got["b"] != "vb" {
			t.Fatalf("get a b nope = %q", got)
		}
		for _, want := range []string{"STORED", "NOT_STORED", "DELETED", "NOT_FOUND", "ERROR"} {
			if l := c.line(); l != want {
				t.Fatalf("reply %q, want %q", l, want)
			}
		}
	}

	// One connection's script, as Stats fields.
	per := Stats{CmdGet: 3, CmdSet: 2, CmdDelete: 2, GetKeys: 5, GetHits: 3, GetMisses: 2,
		ExecutorGets: 2, ProtocolErrors: 1}
	want := Stats{Accepted: conns}
	for range conns {
		want.CmdGet += per.CmdGet
		want.CmdSet += per.CmdSet
		want.CmdDelete += per.CmdDelete
		want.GetKeys += per.GetKeys
		want.GetHits += per.GetHits
		want.GetMisses += per.GetMisses
		want.ExecutorGets += per.ExecutorGets
		want.ProtocolErrors += per.ProtocolErrors
	}
	closeAndCheck := func(cs []*testClient, open int) {
		t.Helper()
		for _, c := range cs {
			c.close()
		}
		for deadline := time.Now().Add(10 * time.Second); s.Stats().Conns != open; {
			if time.Now().After(deadline) {
				t.Fatalf("%d connections open 10s after closing, want %d", s.Stats().Conns, open)
			}
			time.Sleep(time.Millisecond)
		}
		want.Conns = open
		if got := s.Stats(); got != want {
			t.Fatalf("with %d connections open: Stats\n got %+v\nwant %+v", open, got, want)
		}
	}
	closeAndCheck(cs[:conns/2], conns-conns/2)

	// The open connections' lines plus the closed totals.
	lines := cs[conns/2].stats("conns")
	s.mu.Lock()
	closed := s.closedCounts
	s.mu.Unlock()
	sum, _ := s.totals()
	for _, f := range []struct {
		line         string
		closed, want uint64
	}{
		{"ops", closed[cmdGet].Load() + closed[cmdSet].Load() + closed[cmdDelete].Load() + closed[cmdOther].Load(),
			sum[cmdGet].Load() + sum[cmdSet].Load() + sum[cmdDelete].Load() + sum[cmdOther].Load()},
		{"get_keys", closed[getKeys].Load(), want.GetKeys},
		{"get_hits", closed[getHits].Load(), want.GetHits},
		{"sets", closed[cmdSet].Load(), want.CmdSet},
		{"deletes", closed[cmdDelete].Load(), want.CmdDelete},
		{"bytes_in", closed[bytesIn].Load(), sum[bytesIn].Load()},
		{"admissions", closed[admissions].Load(), sum[admissions].Load()},
	} {
		total, n := f.closed, 0
		for k, v := range lines {
			if !strings.HasSuffix(k, "."+f.line) {
				continue
			}
			x, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s %q: %v", k, v, err)
			}
			total += x
			n++
		}
		if n != conns-conns/2 {
			t.Errorf("stats conns has %d %s lines, want one per open connection (%d)", n, f.line, conns-conns/2)
		}
		if total != f.want {
			t.Errorf("%s: the open connections' lines plus the closed totals = %d, want %d", f.line, total, f.want)
		}
	}

	closeAndCheck(cs[conns/2:], 0)
	closeClean(t, s)
}
