package workload

import (
	"fmt"
	"strings"
)

// YCSBWorkload is one of the six YCSB core workloads (Cooper et al.,
// "Benchmarking cloud serving systems with YCSB", SoCC 2010) expressed
// in the store dialect: an op mixture plus the key distribution the
// spec pairs with it. Scan span and value sizes stay harness knobs —
// the spec leaves them to the target store.
type YCSBWorkload struct {
	// Name is the single-letter workload name, "A" through "F".
	Name string
	// Desc is the spec's one-line characterisation.
	Desc string
	// Mix is the op mixture in the store dialect.
	Mix StoreMix
	// Dist is the key distribution the spec pairs with the mix.
	Dist Dist
}

// The six YCSB core workloads. Inserts are modelled as puts: the store
// is an upsert KV, so "insert a new record" and "update a record" are
// the same wire op; under the Latest distribution puts land on the
// advancing insert frontier (NextInsert), which is exactly workload D's
// "read the records just inserted" shape.
var ycsbWorkloads = []YCSBWorkload{
	{"A", "update-heavy: 50% read / 50% update, zipfian", StoreMix{GetPct: 50, PutPct: 50}, Zipf},
	{"B", "read-heavy: 95% read / 5% update, zipfian", StoreMix{GetPct: 95, PutPct: 5}, Zipf},
	{"C", "read-only: 100% read, zipfian", StoreMix{GetPct: 100}, Zipf},
	{"D", "read-latest: 95% read / 5% insert, latest", StoreMix{GetPct: 95, PutPct: 5}, Latest},
	{"E", "scan-heavy: 95% scan / 5% insert, zipfian", StoreMix{ScanPct: 95, PutPct: 5}, Zipf},
	{"F", "read-modify-write: 50% read / 50% rmw, zipfian", StoreMix{GetPct: 50, RMWPct: 50}, Zipf},
}

// YCSBWorkloads returns the six core workloads A–F in order. The slice
// is a copy; callers may reorder or filter it.
func YCSBWorkloads() []YCSBWorkload {
	out := make([]YCSBWorkload, len(ycsbWorkloads))
	copy(out, ycsbWorkloads)
	return out
}

// ParseYCSB resolves a workload by letter ("A".."F", case-insensitive).
func ParseYCSB(name string) (YCSBWorkload, error) {
	n := strings.ToUpper(strings.TrimSpace(name))
	for _, w := range ycsbWorkloads {
		if w.Name == n {
			return w, nil
		}
	}
	return YCSBWorkload{}, fmt.Errorf("workload: unknown YCSB workload %q (want A..F)", name)
}
