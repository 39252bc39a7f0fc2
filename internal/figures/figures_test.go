package figures_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pop/internal/core"
	"pop/internal/figures"
	"pop/internal/report"
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
	if len(seen) < 19 {
		t.Fatalf("only %d figures registered", len(seen))
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
// skeleton with testdata/skeletons.golden (-update rewrites it).
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

// TestScanFiguresEmitLatencyQuantiles: both scan-heavy figures (one per
// RangeScanner) must exist and carry positive p50/p99 scan-latency
// series — the tail metric this repo adds on top of the paper's plots.
func TestScanFiguresEmitLatencyQuantiles(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow in -short mode")
	}
	for _, id := range []string{"skl-scan", "abt-scan"} {
		f, ok := figures.Get(id)
		if !ok {
			t.Fatalf("figure %q not registered", id)
		}
		series, err := f.Run(fastCtx())
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, s := range series {
			if !strings.Contains(s.Title, "scan p50") && !strings.Contains(s.Title, "scan p99") {
				continue
			}
			found++
			for _, r := range s.Rows {
				for i, v := range r.Cells {
					if v <= 0 {
						t.Fatalf("%s: %q: non-positive latency for %s at threads=%s", id, s.Title, s.Names[i], r.X)
					}
				}
			}
		}
		if found != 2 {
			t.Fatalf("%s emitted %d latency series, want p50 and p99", id, found)
		}
	}
}
