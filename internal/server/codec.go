// Package server is the wire-protocol serving front: a TCP server
// speaking a memcached-text subset (get/gets multi-key, set, add,
// delete, stats, quit) over the sharded KV store, with two
// production-shaped mechanisms layered on the thread-lifecycle work:
//
//   - Admission control. The domain is sized for a bounded number of
//     serving slots; every connection is a goroutine, and a connection
//     leases a core.GroupHandle only while it has buffered commands to
//     execute (a "burst"), through the blocking DomainGroup.AcquireWait.
//     Connections ≫ slots therefore queue for admission instead of
//     being refused, and an idle connection holds no reclamation
//     resources at all.
//
//   - Cross-connection get coalescing. Single-key gets are not executed
//     on the connection's own thread: they are queued to the key's
//     shard, and whichever connection takes the shard's combiner lock
//     answers everything queued with one Store.GetBatch — one protected
//     operation serving every client that contended for the shard, and
//     an inline get when nobody did (coalesce.go). This is the batch
//     amortization store.getbatch_ns_per_key (bench/) measures, harvested across
//     connections instead of within one.
//
// This file is the protocol codec: request-line parsing and data-chunk
// framing, kept free of net so it is table-testable and fuzzable.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"pop/internal/arena"
)

// MaxKeyLen is the longest accepted key (memcached's limit).
const MaxKeyLen = 250

// maxLineLen bounds a request line (a multi-get of ~60 max-size keys);
// longer lines are rejected and drained.
const maxLineLen = 1 << 14

// maxDiscard bounds how many declared-but-oversized payload bytes the
// server will read and drop to keep the stream in sync; a set claiming
// more than this is unrecoverable and closes the connection.
const maxDiscard = 1 << 20

// Op is a parsed command's operation.
type Op uint8

// The accepted operations (the memcached-text subset).
const (
	OpGet     Op = iota // get <key>+
	OpGets              // gets <key>+ (cas values are served as 0)
	OpSet               // set <key> <flags> <exptime> <bytes> [noreply]
	OpAdd               // add <key> <flags> <exptime> <bytes> [noreply]
	OpDelete            // delete <key> [noreply]
	OpStats             // stats [conns|slots]
	OpQuit              // quit
	OpVersion           // version
)

// Command is one parsed request. Keys is reused across parses; copy
// entries to keep them past the next ReadCommand.
type Command struct {
	Op       Op
	Keys     []string // get/gets: all keys; set/add/delete: Keys[0]
	Flags    uint32   // set/add (accepted, not stored; served back as 0)
	Exptime  int64    // set/add (accepted, ignored: no TTL yet)
	Bytes    int      // set/add payload length
	Noreply  bool
	StatsArg string

	// fields is the request line's split scratch, reused across parses
	// so a command costs no slice growth. Its entries alias the line
	// just parsed and mean nothing once ParseCommand has returned.
	fields [][]byte
}

// ClientError is a recoverable protocol violation: the server answers
// "CLIENT_ERROR <msg>" and keeps the connection.
type ClientError string

// Error implements error.
func (e ClientError) Error() string { return string(e) }

// ErrUnknownCommand is a recoverable unknown command name, answered
// with the bare "ERROR" reply.
var ErrUnknownCommand = errors.New("unknown command")

// ErrValueTooLarge is a set/add whose declared payload exceeds the
// value cap. The payload has been consumed (the stream is still in
// sync) and the server answers "SERVER_ERROR object too large for
// cache".
var ErrValueTooLarge = errors.New("object too large for cache")

// Reader frames commands off a connection's byte stream.
type Reader struct {
	r *bufio.Reader
	// maxValue caps set/add payloads (the store's MaxValueLen).
	maxValue int
}

// NewReader wraps r. maxValue <= 0 defaults to the arena's hard cap.
func NewReader(r io.Reader, maxValue int) *Reader {
	if maxValue <= 0 || maxValue > arena.MaxValueLen {
		maxValue = arena.MaxValueLen
	}
	return &Reader{r: bufio.NewReaderSize(r, maxLineLen), maxValue: maxValue}
}

// Buffered returns how many decoded-but-unconsumed bytes are pending —
// nonzero exactly when the client has pipelined further commands that
// can be served without blocking on the socket (the connection's
// thread-lease burst boundary).
func (rd *Reader) Buffered() int { return rd.r.Buffered() }

// ReadCommand reads one command, blocking for the request line. For
// set/add the payload is read into vbuf (grown as needed) and returned;
// other commands return vbuf untouched. Errors of type ClientError,
// ErrUnknownCommand and ErrValueTooLarge leave the stream in sync and
// the connection serviceable; any other error is fatal to the
// connection.
func (rd *Reader) ReadCommand(cmd *Command, vbuf []byte) ([]byte, error) {
	line, err := rd.readLine()
	if err != nil {
		return vbuf, err
	}
	if err := ParseCommand(line, cmd); err != nil {
		return vbuf, err
	}
	if cmd.Op != OpSet && cmd.Op != OpAdd {
		return vbuf, nil
	}
	if cmd.Bytes > rd.maxValue {
		// Consume the declared chunk so the next command parses.
		if cmd.Bytes > maxDiscard {
			return vbuf, fmt.Errorf("server: unrecoverable %d-byte payload", cmd.Bytes)
		}
		if _, err := io.CopyN(io.Discard, rd.r, int64(cmd.Bytes)+2); err != nil {
			return vbuf, err
		}
		return vbuf, ErrValueTooLarge
	}
	if cap(vbuf) < cmd.Bytes {
		vbuf = make([]byte, cmd.Bytes)
	}
	vbuf = vbuf[:cmd.Bytes]
	if _, err := io.ReadFull(rd.r, vbuf); err != nil {
		return vbuf, err
	}
	// The data chunk's terminator: CRLF per the protocol (a bare LF is
	// tolerated, as in request lines, for hand-driven sessions).
	b, err := rd.r.ReadByte()
	if err != nil {
		return vbuf, err
	}
	if b == '\r' {
		if b, err = rd.r.ReadByte(); err != nil {
			return vbuf, err
		}
	}
	if b != '\n' {
		return vbuf, ClientError("bad data chunk")
	}
	return vbuf, nil
}

// readLine reads one request line, stripping the terminator. Lines
// longer than maxLineLen are drained and rejected as a ClientError.
func (rd *Reader) readLine() ([]byte, error) {
	line, err := rd.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Drain the oversized line so the stream resyncs.
		for err == bufio.ErrBufferFull {
			_, err = rd.r.ReadSlice('\n')
		}
		if err != nil {
			return nil, err
		}
		return nil, ClientError("line too long")
	}
	if err != nil {
		return nil, err
	}
	n := len(line) - 1 // strip '\n'
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

// ParseCommand parses one request line (terminator already stripped)
// into cmd, reusing cmd's key slice and field scratch. It is the pure,
// fuzzable half of the codec.
func ParseCommand(line []byte, cmd *Command) error {
	fields := splitFields(cmd.fields[:0], line)
	*cmd = Command{Keys: cmd.Keys[:0], fields: fields}
	if len(fields) == 0 {
		return ClientError("empty command line")
	}
	name, args := fields[0], fields[1:]
	switch string(name) {
	case "get", "gets":
		cmd.Op = OpGet
		if len(name) == 4 {
			cmd.Op = OpGets
		}
		if len(args) == 0 {
			return ClientError("get requires at least one key")
		}
		for _, k := range args {
			if !validKey(k) {
				return ClientError("bad key")
			}
			cmd.Keys = append(cmd.Keys, string(k))
		}
	case "set", "add":
		cmd.Op = OpSet
		if name[0] == 'a' {
			cmd.Op = OpAdd
		}
		if len(args) == 5 && string(args[4]) == "noreply" {
			cmd.Noreply = true
			args = args[:4]
		}
		if len(args) != 4 {
			return ClientError("bad command line format")
		}
		if !validKey(args[0]) {
			return ClientError("bad key")
		}
		cmd.Keys = append(cmd.Keys, string(args[0]))
		flags, err := parseUint(args[1], 32)
		if err != nil {
			return ClientError("bad flags")
		}
		cmd.Flags = uint32(flags)
		exp, err := parseUint(args[2], 63)
		if err != nil {
			return ClientError("bad exptime")
		}
		cmd.Exptime = int64(exp)
		n, err := parseUint(args[3], 31)
		if err != nil {
			return ClientError("bad data length")
		}
		cmd.Bytes = int(n)
	case "delete":
		cmd.Op = OpDelete
		if len(args) == 2 && string(args[1]) == "noreply" {
			cmd.Noreply = true
			args = args[:1]
		}
		if len(args) != 1 || !validKey(args[0]) {
			return ClientError("bad command line format")
		}
		cmd.Keys = append(cmd.Keys, string(args[0]))
	case "stats":
		cmd.Op = OpStats
		if len(args) > 1 {
			return ClientError("bad command line format")
		}
		if len(args) == 1 {
			cmd.StatsArg = string(args[0])
		}
	case "quit":
		cmd.Op = OpQuit
		if len(args) != 0 {
			return ClientError("bad command line format")
		}
	case "version":
		cmd.Op = OpVersion
		if len(args) != 0 {
			return ClientError("bad command line format")
		}
	default:
		return ErrUnknownCommand
	}
	return nil
}

// splitFields appends line's space-separated fields to out
// (bytes.Fields semantics for the space-only separator the protocol
// uses). The fields alias line.
func splitFields(out [][]byte, line []byte) [][]byte {
	start := -1
	for i, b := range line {
		if b == ' ' {
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, line[start:])
	}
	return out
}

// validKey enforces memcached's key rules: 1..MaxKeyLen bytes, no
// whitespace or control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for _, b := range k {
		if b <= ' ' || b == 127 {
			return false
		}
	}
	return true
}

// parseUint parses a base-10 unsigned integer of at most bits bits
// without allocating.
func parseUint(b []byte, bits int) (uint64, error) {
	if len(b) == 0 {
		return 0, ClientError("empty number")
	}
	var max uint64 = 1<<uint(bits) - 1
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, ClientError("bad number")
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, ClientError("number out of range")
		}
		v = v*10 + d
	}
	return v, nil
}
