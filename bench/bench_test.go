package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeOptions is the benchmark at toy scale: populations and op counts
// divided by 100, 200 ms slices, one set-up, a calibration of a few ms.
func smokeOptions(t *testing.T) options {
	opt := defaultOptions()
	opt.slices, opt.seconds = 2, 0.4
	opt.setups, opt.spin, opt.shrink = 1, 0, 100
	opt.calib = calibSize{cpuIters: 1 << 20, chaseWords: 1 << 16, chaseSteps: 1 << 14}
	opt.floorP50, opt.floorP99 = 20, 50
	opt.paperSlice, opt.paperRounds, opt.paperFloors = 40*time.Millisecond, 1, false
	opt.outDir = t.TempDir()
	return opt
}

func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if float64(c.RunSeconds) != defaultOptions().seconds {
		t.Errorf("run_seconds %d, default -seconds %v", c.RunSeconds, defaultOptions().seconds)
	}
	check := func(kind string, listed []contractMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit || m.Bound != defs[i].bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, defs[i])
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}

// TestSmoke runs every workload's two runs at toy scale and checks what
// the contract promises: exactly the listed metrics with their units, no
// failed op, and a trace file whose spans form trees with no negative
// self time.
func TestSmoke(t *testing.T) {
	opt := smokeOptions(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runEndToEnd(sp, 42, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, res, endToEnd)
			if res, err = runTraced(sp, 42, opt); err != nil {
				t.Fatal(err)
			}
			checkLine(t, res, perLayer)
			for l, v := range res.SelfNs {
				if v < 0 {
					t.Errorf("layer %s has self time %.0f ns", l, v)
				}
			}
			checkTrace(t, res.TraceFile)
		})
	}
}

func checkLine(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct:%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	line, err := contractLine(res, defs)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           *bool
		Attempted, Failed *uint64
		Metrics           map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("%s: a top-level key is missing", line)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d listed", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("metric %s: printed %+v, want unit %q", d.name, m, d.unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		TraceID  *int `json:"trace_id"`
		SpanID   *int `json:"span_id"`
		ParentID *int `json:"parent_id"`
		Layer    string
		Name     string
		StartNs  *int64 `json:"start_ns"`
		EndNs    *int64 `json:"end_ns"`
		Replay   *bool
	}
	order := map[string]int{}
	for i, l := range layerNames {
		order[l] = i
	}
	seen := map[int]rec{}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var r rec
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if r.TraceID == nil || r.SpanID == nil || r.ParentID == nil || r.StartNs == nil || r.EndNs == nil || r.Replay == nil {
			t.Fatalf("line %d: a key is missing: %s", n, sc.Bytes())
		}
		if _, ok := order[r.Layer]; !ok || r.Name == "" {
			t.Fatalf("line %d: layer %q name %q", n, r.Layer, r.Name)
		}
		if *r.EndNs < *r.StartNs {
			t.Errorf("line %d: span ends before it starts", n)
		}
		if *r.ParentID < 0 {
			if *r.Replay {
				t.Errorf("line %d: a root span is marked replay", n)
			}
		} else {
			p, ok := seen[*r.ParentID]
			switch {
			case !ok:
				t.Errorf("line %d: parent %d not recorded before its child", n, *r.ParentID)
			case *p.TraceID != *r.TraceID:
				t.Errorf("line %d: parent belongs to trace %d, child to %d", n, *p.TraceID, *r.TraceID)
			case order[p.Layer] > order[r.Layer]:
				t.Errorf("line %d: %s span under a %s span", n, r.Layer, p.Layer)
			case !*r.Replay:
				t.Errorf("line %d: a child span is not marked replay", n)
			}
		}
		seen[*r.SpanID] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("trace file is empty")
	}
}
