// Command bench is the repository's benchmark: four closed-loop workloads
// that enter the system at different layers, measured end to end in
// drift-guarded slices, and a separate traced run per workload that times
// every layer (core, ds, arena, store, server) from outside.
//
//	bash bench/run.sh --seed 42                       # every workload, both runs
//	bash bench/run.sh --workload store-read --seed 7 --seconds 16 --trace 0
//
// With --workload it prints, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	opt := defaultOptions()
	var (
		name   = flag.String("workload", "", "run one workload (default: all four)")
		seed   = flag.Uint64("seed", 42, "seed every generated key, value and op sequence derives from")
		trace  = flag.String("trace", "both", "0: the untraced end-to-end run; 1: the traced per-layer run; both")
		repeat = flag.Int("repeat", 1, "agreement mode: make the untraced run this many times and compare them")
		idle   = flag.Duration("idle", 0, "agreement mode: sit idle this long before each run of the second half")
	)
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "length of the measured phase; it is cut into 8 slices")
	flag.StringVar(&opt.outDir, "out", opt.outDir, "directory for trace files and per-run detail")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	selected := specs
	if *name != "" {
		sp, err := specByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []spec{sp}
	}
	var untraced, traced bool
	switch *trace {
	case "0", "false":
		untraced = true
	case "1", "true":
		traced = true
	case "both":
		untraced, traced = true, true
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	if *repeat > 1 {
		if !agreement(selected, *seed, opt, *repeat, *idle) {
			os.Exit(1)
		}
		return
	}

	var all []*result
	for _, sp := range selected {
		if untraced {
			res, err := runEndToEnd(sp, *seed, opt)
			if err != nil {
				fatal(err)
			}
			report(res, endToEnd, opt)
			all = append(all, res)
		}
		if traced {
			res, err := runTraced(sp, *seed, opt)
			if err != nil {
				fatal(err)
			}
			report(res, perLayer, opt)
			all = append(all, res)
		}
	}
	if *name == "" {
		// A whole suite is a baseline: stamp it with what it ran on. Without
		// uname the stamp has no kernel; the numbers are as good.
		uname, _ := exec.Command("uname", "-srm").Output()
		suite := struct {
			Date    string    `json:"date"`
			Machine string    `json:"machine"`
			Go      string    `json:"go"`
			Nproc   int       `json:"nproc"`
			Seconds float64   `json:"seconds"`
			Claim   any       `json:"claim"`
			Results []*result `json:"results"`
		}{time.Now().UTC().Format(time.RFC3339), strings.TrimSpace(string(uname)), runtime.Version(), runtime.NumCPU(), opt.seconds, nil, all}
		if err := writeJSON(filepath.Join(opt.outDir, "suite.json"), suite); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// contractLine renders res as the one JSON object the contract asks for:
// exactly the metrics in defs, each with its unit.
func contractLine(res *result, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(out)
}

// report prints res for people on standard error, keeps its detail in the
// output directory, and prints the contract's line on standard output.
func report(res *result, defs []metricDef, opt options) {
	run := "end-to-end"
	if res.Traced {
		run = "per-layer"
	}
	line, err := contractLine(res, defs)
	if err != nil {
		fatal(err)
	}
	logf("== %s (%s) seed=%d clean:%t reruns=%d attempted=%d failed=%d", res.Workload, run, res.Seed, res.Clean, res.Reruns, res.Attempted, res.Failed)
	for _, d := range defs {
		if lo, ok := res.Min[d.name]; ok {
			logf("  %-28s %14.4f %-6s (as read %.4f, slices %.4f .. %.4f)", d.name, res.Metrics[d.name], d.unit, res.Raw[d.name], lo, res.Max[d.name])
		} else {
			logf("  %-28s %14.4f %s", d.name, res.Metrics[d.name], d.unit)
		}
	}
	if res.Traced {
		var layers []string
		var sum float64
		for l, v := range res.SelfNs {
			layers = append(layers, fmt.Sprintf("%s=%.0f", l, v))
			sum += v
		}
		sort.Strings(layers)
		logf("  read self times (ns) %v sum to %.0f; root span median %.0f (%+.1f%%); trace in %s",
			layers, sum, res.RootNs, 100*(sum-res.RootNs)/res.RootNs, res.TraceFile)
	}
	if !res.Clean {
		logf("  clean:false: a slice stayed disturbed after %d re-runs", maxReruns)
	}
	if err := writeJSON(filepath.Join(opt.outDir, res.Workload+"."+run+".json"), res); err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// agreement makes the untraced run n times per workload, each with
// another seed, the second half each after sitting idle (a cold machine is
// the worst case the warm-up has to absorb). For every end-to-end metric
// it prints how far the runs spread beside the bound: the distance between
// the quartiles over the median, which is the rule the driver accepts the
// benchmark by, and the full range beside it. setup_s is exempt, as it is
// for the driver. It reports whether every spread stayed inside its bound.
func agreement(selected []spec, seed uint64, opt options, n int, idle time.Duration) bool {
	runs := map[string][]*result{}
	for i := range n {
		if i >= (n+1)/2 && idle > 0 {
			logf("-- idle %v", idle)
			time.Sleep(idle)
		}
		for _, sp := range selected {
			res, err := runEndToEnd(sp, seed+uint64(i), opt)
			if err != nil {
				fatal(err)
			}
			if !res.Correct || !res.Clean {
				logf("%s run %d: correct:%t clean:%t", sp.name, i, res.Correct, res.Clean)
			}
			runs[sp.name] = append(runs[sp.name], res)
		}
	}
	ok := true
	fmt.Printf("%-14s %-14s %12s %10s %10s %7s\n", "workload", "metric", "median", "iqr/med", "range/med", "bound")
	for _, sp := range selected {
		for _, d := range endToEnd {
			vs := make([]float64, n)
			for i, res := range runs[sp.name] {
				vs[i] = res.Metrics[d.name]
			}
			sort.Float64s(vs)
			med := median(vs)
			spread := iqr(vs) / med
			verdict := ""
			if spread > d.bound && d.name != "setup_s" {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-14s %-14s %12.4f %9.2f%% %9.2f%% %6.0f%%%s\n", sp.name, d.name, med, 100*spread, 100*(vs[n-1]-vs[0])/med, 100*d.bound, verdict)
		}
	}
	return ok
}

// iqr is the distance between the first and third quartile of sorted vs,
// as Python's statistics.quantiles(vs, n=4) places them.
func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := len(vs) + 1
		j := min(max(i*m/4, 1), len(vs)-1)
		delta := float64(i*m - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return q(3) - q(1)
}
