package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// TraceOp is one recorded store operation in a replayable trace.
type TraceOp struct {
	// Op is the operation kind: StoreGet, StorePut, StoreDelete,
	// StoreScan or StoreRMW (StoreMGet and StoreMPut have no single-key
	// line form).
	Op StoreOp
	// Key is the store key.
	Key string
	// Size is op-specific: payload bytes for put/rmw (0 = harness
	// default), scan span for scan (0 = harness default). Ignored for
	// get/delete.
	Size int
	// Offset is the op's timestamp relative to trace start. Replay
	// honours it only in paced mode; otherwise ops fire back-to-back.
	Offset time.Duration
}

// traceOps maps the text form to the op kind.
var traceOps = map[string]StoreOp{
	"get":    StoreGet,
	"put":    StorePut,
	"set":    StorePut, // memcached spelling
	"delete": StoreDelete,
	"del":    StoreDelete,
	"scan":   StoreScan,
	"rmw":    StoreRMW,
}

// ParseTrace reads a timestamped op trace: one op per line in the form
//
//	op,key,size,offset_us
//
// where op is get|put|set|delete|del|scan|rmw, size is the put/rmw
// payload length or scan span in bytes/pairs (0 = use the replaying
// harness's default), and offset_us is the op's microsecond offset
// from trace start. Blank lines and lines starting with '#' are
// skipped. Malformed lines return an error naming the line number;
// ParseTrace never panics on hostile input (see FuzzParseTrace).
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var ops []TraceOp
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("workload: trace line %d: want op,key,size,offset_us, got %d field(s)", line, len(fields))
		}
		op, ok := traceOps[strings.ToLower(strings.TrimSpace(fields[0]))]
		if !ok {
			return nil, fmt.Errorf("workload: trace line %d: unknown op %q (want get, put, delete, scan or rmw)", line, fields[0])
		}
		key := strings.TrimSpace(fields[1])
		if key == "" {
			return nil, fmt.Errorf("workload: trace line %d: empty key", line)
		}
		size, err := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err != nil || size < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", line, fields[2])
		}
		offUS, err := strconv.ParseInt(strings.TrimSpace(fields[3]), 10, 64)
		if err != nil || offUS < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad offset_us %q", line, fields[3])
		}
		ops = append(ops, TraceOp{Op: op, Key: key, Size: size, Offset: time.Duration(offUS) * time.Microsecond})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace read: %w", err)
	}
	return ops, nil
}

// TraceKeys returns the distinct keys appearing in ops, in first-seen
// order — the load set a replay prefills so reads hit.
func TraceKeys(ops []TraceOp) []string {
	seen := make(map[string]struct{}, len(ops))
	var keys []string
	for _, op := range ops {
		if _, ok := seen[op.Key]; !ok {
			seen[op.Key] = struct{}{}
			keys = append(keys, op.Key)
		}
	}
	return keys
}
