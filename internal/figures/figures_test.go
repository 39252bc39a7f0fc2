package figures_test

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/figures"
	"pop/internal/harness"
	"pop/internal/report"
	"pop/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/skeletons.golden from this run")

// fastCtx keeps figure smoke-tests quick: two policies, one thread count,
// tiny trials.
func fastCtx() figures.Ctx {
	return figures.Ctx{
		Duration: 10 * time.Millisecond,
		Threads:  []int{2},
		Scale:    2048,
		Seed:     1,
		Policies: []core.Policy{core.HP, core.HazardPtrPOP},
	}
}

func TestAllFiguresHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures.All() {
		if f.ID == "" || f.Desc == "" {
			t.Fatalf("figure with empty id/desc: %+v", f)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
	}
	// The paper's 20 entries plus pingfanout, nbr-overwrite and timeline.
	if len(seen) != 23 {
		t.Fatalf("%d figures registered, want 23", len(seen))
	}
}

func TestGetResolvesEveryID(t *testing.T) {
	for _, f := range figures.All() {
		if got, ok := figures.Get(f.ID); !ok || got.ID != f.ID {
			t.Fatalf("Get(%q) failed", f.ID)
		}
	}
	if _, ok := figures.Get("nope"); ok {
		t.Fatal("Get accepted an unknown id")
	}
}

// skeleton renders what a figure's output must keep from commit to
// commit: every series' title, x label, column names and row labels —
// no cell values. timeline's row count is the number of samples a run
// happened to take, so its row labels are left out.
func skeleton(id string, series []report.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", id)
	for _, s := range series {
		fmt.Fprintf(&b, "# %s\n%s: %s\n", s.Title, s.XLabel, strings.Join(s.Names, " | "))
		if id == "timeline" {
			continue
		}
		rows := make([]string, len(s.Rows))
		for i, r := range s.Rows {
			rows[i] = r.X
		}
		fmt.Fprintf(&b, "rows: %s\n", strings.Join(rows, " | "))
	}
	return b.String()
}

// TestEveryFigureRuns executes each figure once at minimal scale,
// sanity-checks the emitted series, and compares every figure's
// skeleton with testdata/skeletons.golden (-update rewrites it). When
// the whole set runs, a golden section that no registered figure
// produces fails too: it is a deleted figure's leftover.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow in -short mode")
	}
	golden := filepath.Join("testdata", "skeletons.golden")
	want := map[string]string{} // figure id -> its golden section
	if !*update {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range strings.Split(string(raw), "== ")[1:] {
			id, _, _ := strings.Cut(sec, "\n")
			want[id] = "== " + sec
		}
	}
	var got []string
	defer func() {
		// A -run subset must not truncate the golden.
		if *update && !t.Failed() && len(got) == len(figures.All()) {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(strings.Join(got, "")), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for _, f := range figures.All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			ctx := fastCtx()
			if f.ID == "ablate-c" {
				ctx.Policies = nil // ablate-c is EpochPOP-only by design
			}
			series, err := f.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(series) == 0 {
				t.Fatal("no series emitted")
			}
			for _, s := range series {
				if len(s.Rows) == 0 {
					t.Fatalf("series %q has no rows", s.Title)
				}
				if len(s.Names) == 0 {
					t.Fatalf("series %q has no columns", s.Title)
				}
				for _, r := range s.Rows {
					if len(r.Cells) != len(s.Names) {
						t.Fatalf("series %q row %q has %d cells for %d columns",
							s.Title, r.X, len(r.Cells), len(s.Names))
					}
				}
			}
			sk := skeleton(f.ID, series)
			got = append(got, sk)
			if !*update && sk != want[f.ID] {
				t.Errorf("skeleton differs from %s (-update only if the change is intended)\n--- got\n%s--- want\n%s", golden, sk, want[f.ID])
			}
		})
	}
	if !*update && len(got) == len(figures.All()) {
		for _, id := range slices.Sorted(maps.Keys(want)) {
			if _, ok := figures.Get(id); !ok {
				t.Errorf("%s has a section for %q, which no registered figure produces (delete it, or -update)", golden, id)
			}
		}
	}
}

// TestThroughputFigureShape checks that a throughput figure produces one
// row per thread count with positive values.
func TestThroughputFigureShape(t *testing.T) {
	f, _ := figures.Get("fig2a")
	ctx := fastCtx()
	ctx.Threads = []int{1, 2}
	series, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	thr := series[0]
	if !strings.Contains(thr.Title, "throughput") {
		t.Fatalf("first series is %q, want throughput", thr.Title)
	}
	if len(thr.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (thread counts)", len(thr.Rows))
	}
	for _, r := range thr.Rows {
		for i, v := range r.Cells {
			if v <= 0 {
				t.Fatalf("non-positive throughput for %s at threads=%s", thr.Names[i], r.X)
			}
		}
	}
}

// TestScanFiguresEmitLatencyQuantiles: the scan-heavy trial that
// popbench -ds skl|abt -mix scan-heavy runs, built on Grid and OpLat as
// popbench builds it, must carry positive p50/p99 scan-latency series on
// both RangeScanners — the tail metric this repo adds on top of the
// paper's plots.
func TestScanFiguresEmitLatencyQuantiles(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow in -short mode")
	}
	ctx := fastCtx()
	for _, ds := range []string{harness.DSSkipList, harness.DSABTree} {
		series, err := figures.Grid[harness.Result]{
			Title: ds, XLabel: "threads",
			Rows: figures.Labels(ctx.Threads), Cols: figures.PolicyNames(ctx.Policies),
			Metrics: []figures.Metric[harness.Result]{
				figures.OpLat("scan p50 (µs)", workload.RangeQuery, 0.50),
				figures.OpLat("scan p99 (µs)", workload.RangeQuery, 0.99),
			},
			Run: func(r, c int) (harness.Result, error) {
				return harness.Run(harness.Config{
					DS: ds, Policy: ctx.Policies[c], Threads: ctx.Threads[r], Duration: ctx.Duration,
					KeyRange: 512, Mix: workload.ScanHeavy, RangeSpan: 100, Seed: ctx.Seed,
					Reclaim: core.Options{ReclaimThreshold: 64},
				})
			},
		}.Series(func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			for _, r := range s.Rows {
				for i, v := range r.Cells {
					if v <= 0 {
						t.Fatalf("%q: non-positive latency for %s at threads=%s", s.Title, s.Names[i], r.X)
					}
				}
			}
		}
	}
}
