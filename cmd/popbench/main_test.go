package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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

// sweepArgs is one tiny sweep per mode (-ds, -store, -serve, -trace),
// plus a scan-free -store sweep, so the labels pin both store structures.
var sweepArgs = []string{
	"-ds skl -mix kv -duration 20ms -threads 2 -policies EBR,EpochPOP -keyrange 2048",
	"-store -shards 4,8 -batch 8 -groups 1,4 -duration 20ms -threads 2 -policies EBR,EpochPOP -keyrange 2048",
	"-store -ycsb B -duration 20ms -threads 2 -policies EBR -keyrange 2048",
	"-serve -conns 2,4 -slots 2 -duration 20ms -policies EBR -keyrange 2048",
	"-trace testdata/sample.trace -policies EBR,EpochPOP",
}

var (
	buildOnce sync.Once
	binDir    string // removed by TestMain
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// popbench builds the binary once per test process and returns its
// path; it skips in -short mode and without a go toolchain.
func popbench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the popbench binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "popbench-test"); buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "popbench")
		if out, err := exec.Command(goBin, "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// TestSweepLabels runs each of sweepArgs, comparing each run's titles,
// headers and row labels with testdata/labels.golden (-update rewrites
// it).
func TestSweepLabels(t *testing.T) {
	bin := popbench(t)
	var got strings.Builder
	for _, args := range sweepArgs {
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

// TestSweepRejectsUnreadFlags: a flag the chosen sweep does not read is
// a usage error (exit 2) that names the flag, and every sweepArgs line
// still runs.
func TestSweepRejectsUnreadFlags(t *testing.T) {
	bin := popbench(t)
	for _, c := range []struct{ args, flag string }{
		{"-serve -shards 4", "-shards"},
		{"-ds skl -groups 2", "-groups"},
		{"-store -conns 4", "-conns"},
		{"-ycsb A -dist uniform", "-dist"},
		{"-serve -ycsb B -getpct 50", "-getpct"},
		{"-trace testdata/sample.trace -dist zipf", "-dist"},
	} {
		out, err := exec.Command(bin, append(strings.Fields(c.args), "-duration", "20ms", "-quiet")...).CombinedOutput()
		msg, _, _ := strings.Cut(string(out), "\n")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(msg, c.flag) {
			t.Errorf("popbench %s: %v, %q; want exit status 2 naming %s", c.args, err, msg, c.flag)
		}
	}
	for _, args := range sweepArgs {
		if out, err := exec.Command(bin, append(strings.Fields(args), "-quiet")...).CombinedOutput(); err != nil {
			t.Errorf("popbench %s: %v\n%s", args, err, out)
		}
	}
}

// TestParseInts pins the list-flag parser: positive integers only, and
// an error that names no particular flag (callers prefix it).
func TestParseInts(t *testing.T) {
	for _, c := range []struct {
		in      string
		want    []int
		wantErr string
	}{
		{in: "4", want: []int{4}},
		{in: "1,2, 8 ,64", want: []int{1, 2, 8, 64}},
		{in: "0", wantErr: "values must be positive, got 0"},
		{in: "2,-1", wantErr: "values must be positive, got -1"},
		{in: "2,x", wantErr: "invalid syntax"},
		{in: "", wantErr: "invalid syntax"},
		{in: "3,", wantErr: "invalid syntax"},
	} {
		got, err := parseInts(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseInts(%q) = %v, %v; want an error containing %q", c.in, got, err, c.wantErr)
			}
			if err != nil && strings.Contains(err.Error(), "thread") {
				t.Errorf("parseInts(%q) error %q names threads; every list flag shares it", c.in, err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestParseValSize pins the -valsize forms: fixed:N, uniform:MIN,MAX
// (MIN ≤ MAX) and mixed:PCT,SMALL,LARGE (PCT ≤ 100, SMALL ≤ LARGE);
// the empty spec keeps the defaults.
func TestParseValSize(t *testing.T) {
	for _, c := range []struct {
		spec            string
		vmin, vmax, pct int
		ok              bool
	}{
		{spec: "", ok: true},
		{spec: "fixed:6", vmin: 6, vmax: 6, ok: true},
		{spec: "uniform:8,64", vmin: 8, vmax: 64, ok: true},
		{spec: "uniform:32,32", vmin: 32, vmax: 32, ok: true},
		{spec: "mixed:80,6,256", vmin: 6, vmax: 256, pct: 80, ok: true},
		{spec: "mixed:100,6,6", vmin: 6, vmax: 6, pct: 100, ok: true},
		{spec: "uniform:64,8"},    // MIN > MAX
		{spec: "mixed:101,6,256"}, // PCT > 100
		{spec: "mixed:80,256,6"},  // SMALL > LARGE
		{spec: "fixed:0"},
		{spec: "fixed:6,7"},   // too many counts
		{spec: "uniform:8"},   // too few
		{spec: "mixed:80,6"},  // too few
		{spec: "normal:8,64"}, // unknown kind
		{spec: "fixed"},       // no colon
		{spec: "fixed:x"},
	} {
		vmin, vmax, pct, err := parseValSize(c.spec)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "bad -valsize") {
				t.Errorf("parseValSize(%q) = %d, %d, %d, %v; want a -valsize usage error", c.spec, vmin, vmax, pct, err)
			}
			continue
		}
		if err != nil || vmin != c.vmin || vmax != c.vmax || pct != c.pct {
			t.Errorf("parseValSize(%q) = %d, %d, %d, %v; want %d, %d, %d", c.spec, vmin, vmax, pct, err, c.vmin, c.vmax, c.pct)
		}
	}
}
