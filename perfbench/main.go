// Command perfbench is the repository's seeded benchmark. It times the cold
// decision pipeline (sufsat.DecideContext, with stage spans taken from
// Options.Hook) and the in-process decision service
// (server.Handler().ServeHTTP) from outside, checks every answer, and prints
// one JSON result line.
//
//	perfbench --workload suite-hybrid|suite-sd|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run, whose spans are also
// written to .bench_build/. Workloads and metrics are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric names a reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"verdict_ms_mean", "ms"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_tail", "ms"},
	{"ok_frac", "ratio"},
	{"alloc_kb_op", "KB"},
}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metric{
	{"funcelim.ms", "ms"},
	{"sep.ms", "ms"},
	{"encode.ms", "ms"},
	{"perconstraint.trans_ms", "ms"},
	{"perconstraint.trans_clauses", "count"},
	{"boolexpr.cnf_ms", "ms"},
	{"boolexpr.nodes", "count"},
	{"trans_cnf.ms", "ms"},
	{"sat.ms", "ms"},
	{"sat.clauses", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.props_per_ms", "1/ms"},
	{"stage.trans_share", "ratio"},
	{"stage.sat_share", "ratio"},
	{"core.sd_classes", "count"},
	{"core.demoted_classes", "count"},
	{"core.undecided", "count"},
	{"core.undecided_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"suf.parse_ms.p50", "ms"},
	{"suf.fingerprint_ms.p50", "ms"},
	{"server.handler_ms.p50", "ms"},
	{"server.queue_ms.p50", "ms"},
	{"server.solve_ms.p50", "ms"},
	{"server.solve_ms.p99", "ms"},
	{"cache.hit_ms.p50", "ms"},
	{"cache.hit_ms.p99", "ms"},
	{"cache.miss_ms.p50", "ms"},
	{"cache.miss_ms.p99", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildDir holds what a run leaves behind (traces), relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "suite-hybrid, suite-sd or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds time.Duration, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// Never run more Ps than CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var out *outcome
	var err error
	switch workload {
	case "serve-mix":
		out, err = runServe(seed, seconds, tr)
	default:
		method, ok := suiteMethods[workload]
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		out, err = runSuite(workload, method, seed, seconds, tr)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("perfbench-trace-%s-%d.json", workload, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(names))}
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("internal: %s did not measure %s", workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("internal: %s measured %s = %v", workload, m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRow writes one diagnostic row (not a named metric) to standard output.
func printRow(row any) {
	line, err := json.Marshal(map[string]any{"row": row})
	if err != nil {
		panic(err) // rows are plain maps of numbers and strings
	}
	fmt.Println(string(line))
}
