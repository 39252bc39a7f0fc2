package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/labels.golden from this run")

// labels keeps what a popbench -csv run must print identically from
// commit to commit: the `#` title lines, the header row under each, and
// every data row's label (first CSV column). Cell values are dropped —
// popbench prints no deterministic ones.
func labels(out string) string {
	var b strings.Builder
	header := false
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			header = true
		case header:
			header = false
		default:
			line, _, _ = strings.Cut(line, ",")
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSweepLabels builds popbench and runs one tiny sweep per mode (-ds,
// -store, -serve, -trace), comparing each run's titles, headers and row
// labels with testdata/labels.golden (-update rewrites it).
func TestSweepLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the popbench binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "popbench")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var got strings.Builder
	for _, args := range []string{
		"-ds skl -mix kv -duration 20ms -threads 2 -policies EBR,EpochPOP -keyrange 2048",
		"-store -shards 4,8 -batch 8 -groups 1,4 -duration 20ms -threads 2 -policies EBR,EpochPOP -keyrange 2048",
		"-serve -conns 2,4 -slots 2 -duration 20ms -policies EBR -keyrange 2048",
		"-trace testdata/sample.trace -policies EBR,EpochPOP",
	} {
		out, err := exec.Command(bin, append(strings.Fields(args), "-csv", "-quiet")...).Output()
		if err != nil {
			t.Fatalf("popbench %s: %v", args, err)
		}
		fmt.Fprintf(&got, "$ popbench %s\n%s", args, labels(string(out)))
	}
	golden := filepath.Join("testdata", "labels.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("sweep labels differ from %s (-update only if the change is intended)\n--- got\n%s", golden, got.String())
	}
}
