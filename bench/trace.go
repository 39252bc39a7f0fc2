package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded from outside the program: a root span around the
// workload's entry-layer call, and child *replay* spans made by re-issuing
// the same op through each lower layer's public function right after it.
// A replay is not the time that layer took inside the root call (the
// program has no spans of its own yet); it is what the layer costs when
// asked the same question directly, and a layer's self time is its span
// minus its children's.

type layer uint8

const (
	layerServer layer = iota
	layerStore
	layerDS
	layerArena
	layerCore
	numLayers
)

var layerNames = [numLayers]string{"server", "store", "ds", "arena", "core"}

type spanName uint8

const (
	nameGet spanName = iota
	namePut
	nameParse
	nameRead
	nameAllocFree
	nameProtect
)

var spanNames = [...]string{"get", "put", "parse", "read", "alloc_free", "protect"}

func opName(write bool) spanName {
	if write {
		return namePut
	}
	return nameGet
}

// traceSample is the share of ops the traced pass records and replays: 1
// in 8. The sibling structure and the probe arena hold one shard's share
// (1/storeShards) of the workload's keys, with every rank folded onto them,
// so replaying one op in storeShards touches each of their keys exactly as
// often as the program touches each of its own, and the replays run about
// as warm as the real thing. (At 1 in 16 the replays ran colder than the
// store and the children outweighed their parent by a fifth; replaying
// every op made them eight times warmer and halved them.)
const traceSample = storeShards

type span struct {
	trace  int32
	parent int32 // index of the parent span in the same recorder, -1 for a root
	layer  layer
	name   spanName
	write  bool // the op behind the trace is a write
	start  int64
	end    int64 // ns since the recorder's epoch
}

// recorder holds one worker's spans in a slice sized before the pass
// starts; nothing is written out until the benchmark ends.
type recorder struct {
	worker int
	epoch  time.Time
	spans  []span
	traces int32
}

// tracer is one worker's recorder plus its handles into the bench-owned
// lower layers the replays run against.
type tracer struct {
	*recorder
	rungs *workerRungs
	cur   int32 // trace id of the op being recorded
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (t *tracer) begin(parent int32, l layer, name spanName, write bool) int32 {
	t.spans = append(t.spans, span{trace: t.cur, parent: parent, layer: l, name: name, write: write})
	id := int32(len(t.spans) - 1)
	t.spans[id].start = t.now()
	return id
}

func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// tracedPass has every worker perform n ops, recording a root span and
// the replay spans for one op in traceSample. It returns the recorders,
// how many ops failed, and the wall time.
func tracedPass(ws []worker, lad *ladder, n int) ([]*recorder, uint64, time.Duration) {
	const spansPerTrace = 6 // the deepest trace: server root, parse, store, ds, core, arena
	recs := make([]*recorder, len(ws))
	for i := range recs {
		recs[i] = &recorder{worker: i, spans: make([]span, 0, (n/traceSample+1)*spansPerTrace)}
	}
	failed := make([]uint64, len(ws))
	epoch := time.Now()
	var wg sync.WaitGroup
	for i, w := range ws {
		recs[i].epoch = epoch
		t := &tracer{recorder: recs[i], rungs: lad.rungs[i]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range n {
				o := w.draw()
				if k%traceSample != 0 {
					if !w.exec(o) {
						failed[i]++
					}
					continue
				}
				t.cur = t.traces
				t.traces++
				l, name := w.root(o)
				id := t.begin(-1, l, name, o.write)
				ok := w.exec(o)
				t.end(id)
				if !ok {
					failed[i]++
				}
				w.replay(o, t, id)
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for _, f := range failed {
		sum += f
	}
	return recs, sum, time.Since(epoch)
}

// durations collects, over recs, the length in ns of every span of layer
// l whose op class matches write and whose name is an op name (get/put).
func durations(recs []*recorder, l layer, write bool) *hist {
	h := new(hist)
	for _, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			if s.layer == l && s.write == write && s.name == opName(write) {
				h.record(s.end - s.start)
			}
		}
	}
	return h
}

// selfTimes returns, per layer, the median over the traces of one op class
// of that layer's self time in ns: the layer's outermost spans minus their
// children in other layers, floored at zero. A replay runs in whatever
// cache state the op before it left, so a child can outweigh the parent it
// stands inside; the parent then added nothing that can be measured from
// outside. rootMedian is the median root span. Layers absent from the
// traces are NaN.
func selfTimes(recs []*recorder, write bool) (self [numLayers]float64, rootMedian float64) {
	var per [numLayers][]float64
	var roots []float64
	for _, r := range recs {
		var acc [numLayers]int64
		var seen [numLayers]bool
		flush := func() {
			for l := range acc {
				if seen[l] {
					per[l] = append(per[l], float64(max(acc[l], 0)))
				}
			}
			acc, seen = [numLayers]int64{}, [numLayers]bool{}
		}
		cur := int32(-1)
		for i := range r.spans {
			s := &r.spans[i]
			if s.write != write {
				continue
			}
			if s.trace != cur {
				flush()
				cur = s.trace
			}
			d := s.end - s.start
			if s.parent < 0 {
				roots = append(roots, float64(d))
				acc[s.layer] += d
				seen[s.layer] = true
			} else if pl := r.spans[s.parent].layer; pl != s.layer {
				acc[pl] -= d
				acc[s.layer] += d
				seen[s.layer] = true
			}
		}
		flush()
	}
	for l := range per {
		self[l] = median(per[l])
	}
	return self, median(roots)
}

// writeTrace writes every span as one JSON object per line.
func writeTrace(dir, name string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, r := range recs {
		base := r.worker << 24
		for i := range r.spans {
			s := &r.spans[i]
			parent := -1
			if s.parent >= 0 {
				parent = base | int(s.parent)
			}
			fmt.Fprintf(w, `{"trace_id":%d,"span_id":%d,"parent_id":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"replay":%t}`+"\n",
				base|int(s.trace), base|i, parent, layerNames[s.layer], spanNames[s.name], s.start, s.end, s.parent >= 0)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
