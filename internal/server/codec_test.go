package server

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestParseCommand table-drives the request-line parser over well-formed
// and malformed lines.
func TestParseCommand(t *testing.T) {
	type want struct {
		op      Op
		keys    []string
		bytes   int
		noreply bool
		stats   string
	}
	cases := []struct {
		name string
		line string
		want *want  // nil when an error is expected
		err  string // substring of the expected error; "" with want=nil means ErrUnknownCommand
	}{
		{"get one", "get k1", &want{op: OpGet, keys: []string{"k1"}}, ""},
		{"get many", "get a b c", &want{op: OpGet, keys: []string{"a", "b", "c"}}, ""},
		{"gets", "gets a b", &want{op: OpGets, keys: []string{"a", "b"}}, ""},
		{"get extra spaces", "get   a    b ", &want{op: OpGet, keys: []string{"a", "b"}}, ""},
		{"get no key", "get", nil, "at least one key"},
		{"get key too long", "get " + strings.Repeat("k", MaxKeyLen+1), nil, "bad key"},
		{"get key max len", "get " + strings.Repeat("k", MaxKeyLen), &want{op: OpGet, keys: []string{strings.Repeat("k", MaxKeyLen)}}, ""},
		{"get control char key", "get a\x01b", nil, "bad key"},

		{"set", "set k 7 0 5", &want{op: OpSet, keys: []string{"k"}, bytes: 5}, ""},
		{"set noreply", "set k 0 0 3 noreply", &want{op: OpSet, keys: []string{"k"}, bytes: 3, noreply: true}, ""},
		{"set exptime", "set k 0 120 4", &want{op: OpSet, keys: []string{"k"}, bytes: 4}, ""},
		{"add", "add k 0 0 2", &want{op: OpAdd, keys: []string{"k"}, bytes: 2}, ""},
		{"set missing bytes", "set k 0 0", nil, "bad command line format"},
		{"set junk flags", "set k x 0 5", nil, "bad flags"},
		{"set flags overflow", "set k 4294967296 0 5", nil, "bad flags"},
		{"set junk exptime", "set k 0 x 5", nil, "bad exptime"},
		{"set negative bytes", "set k 0 0 -1", nil, "bad data length"},
		{"set bytes overflow", "set k 0 0 99999999999999999999", nil, "bad data length"},
		{"set trailing junk", "set k 0 0 5 banana", nil, "bad command line format"},
		{"set empty key", "set  0 0 5", nil, "bad command line format"},

		{"delete", "delete k", &want{op: OpDelete, keys: []string{"k"}}, ""},
		{"delete noreply", "delete k noreply", &want{op: OpDelete, keys: []string{"k"}, noreply: true}, ""},
		{"delete no key", "delete", nil, "bad command line format"},
		{"delete two keys", "delete a b", nil, "bad command line format"},

		{"stats", "stats", &want{op: OpStats}, ""},
		{"stats conns", "stats conns", &want{op: OpStats, stats: "conns"}, ""},
		{"stats extra", "stats a b", nil, "bad command line format"},
		{"quit", "quit", &want{op: OpQuit}, ""},
		{"quit junk", "quit now", nil, "bad command line format"},
		{"version", "version", &want{op: OpVersion}, ""},

		{"empty line", "", nil, "empty command line"},
		{"spaces only", "   ", nil, "empty command line"},
		{"unknown", "frobnicate k", nil, ""},
		{"case sensitive", "GET k", nil, ""},
	}
	var cmd Command
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ParseCommand([]byte(tc.line), &cmd)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("ParseCommand(%q) succeeded, want error", tc.line)
				}
				if tc.err == "" {
					if !errors.Is(err, ErrUnknownCommand) {
						t.Fatalf("ParseCommand(%q) = %v, want ErrUnknownCommand", tc.line, err)
					}
					return
				}
				var ce ClientError
				if !errors.As(err, &ce) {
					t.Fatalf("ParseCommand(%q) = %v, want ClientError", tc.line, err)
				}
				if !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("ParseCommand(%q) = %q, want substring %q", tc.line, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseCommand(%q): %v", tc.line, err)
			}
			if cmd.Op != tc.want.op {
				t.Errorf("op = %v, want %v", cmd.Op, tc.want.op)
			}
			if len(cmd.Keys) != len(tc.want.keys) {
				t.Fatalf("keys = %q, want %q", cmd.Keys, tc.want.keys)
			}
			for i := range cmd.Keys {
				if cmd.Keys[i] != tc.want.keys[i] {
					t.Errorf("keys[%d] = %q, want %q", i, cmd.Keys[i], tc.want.keys[i])
				}
			}
			if cmd.Bytes != tc.want.bytes || cmd.Noreply != tc.want.noreply ||
				cmd.StatsArg != tc.want.stats {
				t.Errorf("parsed %+v, want %+v", cmd, *tc.want)
			}
		})
	}
}

// chunkReader yields at most chunk bytes per Read, exercising split
// reads across request-line and data-chunk boundaries.
type chunkReader struct {
	s     string
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.s) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.s) {
		n = len(c.s)
	}
	copy(p, c.s[:n])
	c.s = c.s[n:]
	return n, nil
}

// readCounter counts the reads the codec makes of its source.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadCommandFraming drives the full framing path: payload reads,
// CRLF and bare-LF terminators, pipelining, split reads, and the
// recoverable-error taxonomy.
func TestReadCommandFraming(t *testing.T) {
	read := func(t *testing.T, rd *Reader) (Command, []byte, error) {
		t.Helper()
		var cmd Command
		v, err := rd.ReadCommand(&cmd, nil)
		return cmd, v, err
	}

	t.Run("set payload", func(t *testing.T) {
		rd := NewReader(strings.NewReader("set k 0 0 5\r\nhello\r\n"), 0)
		cmd, v, err := read(t, rd)
		if err != nil || cmd.Op != OpSet || string(v) != "hello" {
			t.Fatalf("got op=%v v=%q err=%v", cmd.Op, v, err)
		}
	})

	t.Run("bare LF terminators", func(t *testing.T) {
		rd := NewReader(strings.NewReader("set k 0 0 2\nhi\nget k\n"), 0)
		if _, v, err := read(t, rd); err != nil || string(v) != "hi" {
			t.Fatalf("set: v=%q err=%v", v, err)
		}
		if cmd, _, err := read(t, rd); err != nil || cmd.Op != OpGet {
			t.Fatalf("get after bare-LF set: %v err=%v", cmd.Op, err)
		}
	})

	t.Run("payload length mismatch", func(t *testing.T) {
		rd := NewReader(strings.NewReader("set k 0 0 5\r\nhelloX\r\n"), 0)
		if _, _, err := read(t, rd); err == nil {
			t.Fatal("want bad-data-chunk error")
		} else {
			var ce ClientError
			if !errors.As(err, &ce) {
				t.Fatalf("want ClientError, got %v", err)
			}
		}
	})

	t.Run("oversized value consumed and stream resyncs", func(t *testing.T) {
		big := strings.Repeat("x", 100)
		rd := NewReader(strings.NewReader("set k 0 0 100\r\n"+big+"\r\nget k\r\n"), 64)
		if _, _, err := read(t, rd); !errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("want ErrValueTooLarge, got %v", err)
		}
		if cmd, _, err := read(t, rd); err != nil || cmd.Op != OpGet {
			t.Fatalf("stream out of sync after oversized set: %v err=%v", cmd.Op, err)
		}
	})

	t.Run("unrecoverable giant declaration", func(t *testing.T) {
		rd := NewReader(strings.NewReader("set k 0 0 2000000\r\n"), 64)
		_, _, err := read(t, rd)
		if err == nil || errors.Is(err, ErrValueTooLarge) {
			t.Fatalf("want fatal error, got %v", err)
		}
	})

	t.Run("line too long drains", func(t *testing.T) {
		long := "get " + strings.Repeat("k ", maxLineLen)
		rd := NewReader(strings.NewReader(long+"\r\nversion\r\n"), 0)
		_, _, err := read(t, rd)
		var ce ClientError
		if !errors.As(err, &ce) {
			t.Fatalf("want ClientError for long line, got %v", err)
		}
		if cmd, _, err := read(t, rd); err != nil || cmd.Op != OpVersion {
			t.Fatalf("stream out of sync after long line: %v err=%v", cmd.Op, err)
		}
	})

	t.Run("pipelined commands", func(t *testing.T) {
		src := &readCounter{r: strings.NewReader("set a 0 0 1\r\nA\r\nget a b\r\ndelete a noreply\r\nquit\r\n")}
		rd := NewReader(src, 0)
		ops := []Op{OpSet, OpGet, OpDelete, OpQuit}
		for i, wantOp := range ops {
			cmd, _, err := read(t, rd)
			if err != nil || cmd.Op != wantOp {
				t.Fatalf("pipelined cmd %d: op=%v err=%v want %v", i, cmd.Op, err, wantOp)
			}
			// Pipelined commands decode from the one buffered read: the
			// source read is the connection's burst boundary.
			if src.reads != 1 {
				t.Fatalf("cmd %d: %d source reads, want 1", i, src.reads)
			}
		}
		if _, _, err := read(t, rd); err != io.EOF || src.reads != 2 {
			t.Fatalf("after last command: err=%v after %d source reads, want EOF from a second read", err, src.reads)
		}
	})

	t.Run("split reads", func(t *testing.T) {
		for _, chunk := range []int{1, 2, 3, 7} {
			rd := NewReader(&chunkReader{s: "set key 1 2 6\r\nabcdef\r\ngets key\r\n", chunk: chunk}, 0)
			cmd, v, err := read(t, rd)
			if err != nil || cmd.Op != OpSet || string(v) != "abcdef" {
				t.Fatalf("chunk=%d set: op=%v v=%q err=%v", chunk, cmd.Op, v, err)
			}
			cmd, _, err = read(t, rd)
			if err != nil || cmd.Op != OpGets || cmd.Keys[0] != "key" {
				t.Fatalf("chunk=%d gets: %+v err=%v", chunk, cmd, err)
			}
		}
	})

	t.Run("eof mid-payload", func(t *testing.T) {
		rd := NewReader(strings.NewReader("set k 0 0 10\r\nabc"), 0)
		if _, _, err := read(t, rd); err == nil {
			t.Fatal("want error for truncated payload")
		}
	})
}

// sameCommand compares everything a caller can read from a Command.
func sameCommand(a, b Command) bool {
	return a.Op == b.Op && slices.Equal(a.Keys, b.Keys) &&
		a.Bytes == b.Bytes && a.Noreply == b.Noreply &&
		a.StatsArg == b.StatsArg
}

// TestParseCommandAllocs pins the request line's steady-state cost: a
// single-key get allocates its key string and nothing else (no field
// slice, no key slice growth).
func TestParseCommandAllocs(t *testing.T) {
	line := []byte("get user:0000000042")
	var cmd Command
	if got := testing.AllocsPerRun(100, func() {
		if err := ParseCommand(line, &cmd); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("ParseCommand(%q) allocates %.0f times per call, want <= 1", line, got)
	}
}

// FuzzParseCommand feeds arbitrary request lines through the parser,
// checking it never panics and that accepted commands satisfy the
// parser's own invariants.
func FuzzParseCommand(f *testing.F) {
	for _, seed := range []string{
		"get k",
		"gets a b c",
		"set k 1 2 3 noreply",
		"add key 0 0 0",
		"delete k noreply",
		"stats conns",
		"quit",
		"version",
		"set k 0 0 99999999999999999999",
		"get " + strings.Repeat("k", 251),
		"   ",
		"set k 0 0 5 extra junk",
		"get\x00null",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var cmd Command
		err := ParseCommand(line, &cmd)
		// A Command that has parsed other lines — the last one rejected
		// half way through its keys — must carry nothing over.
		var reused Command
		ParseCommand([]byte("gets a b c d e f g h"), &reused)
		ParseCommand([]byte("get k1 k2 bad\x01key k4"), &reused)
		if rerr := ParseCommand(line, &reused); rerr != err || !sameCommand(cmd, reused) {
			t.Fatalf("%q parses to %+v (%v) fresh but %+v (%v) into a reused Command", line, cmd, err, reused, rerr)
		}
		if err != nil {
			return
		}
		switch cmd.Op {
		case OpGet, OpGets:
			if len(cmd.Keys) == 0 {
				t.Fatalf("get accepted with no keys: %q", line)
			}
		case OpSet, OpAdd, OpDelete:
			if len(cmd.Keys) != 1 {
				t.Fatalf("%v accepted with %d keys: %q", cmd.Op, len(cmd.Keys), line)
			}
		}
		for _, k := range cmd.Keys {
			if len(k) == 0 || len(k) > MaxKeyLen {
				t.Fatalf("accepted bad key %q from %q", k, line)
			}
			for i := 0; i < len(k); i++ {
				if k[i] <= ' ' || k[i] == 127 {
					t.Fatalf("accepted key with control byte %q from %q", k, line)
				}
			}
		}
		if cmd.Bytes < 0 {
			t.Fatalf("negative payload length from %q", line)
		}
	})
}
