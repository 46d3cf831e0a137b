// Command perfbench is the end-to-end benchmark of the Checkmate
// reproduction. It drives the planner only through its public entry points:
// the library through checkmate.Load and checkmate.Solve, and the planning
// service through an in-process service.Server on a loopback port, driven by
// internal/service/client. Everything runs in this one process.
//
//	bash perfbench/run.sh --workload zoo-plan --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// an untraced window and then a traced one, and reports the per-layer
// metrics. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when any
// returned plan fails the plan check. README.md in this directory describes
// the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's contract; BENCHMARK.json at the repository root repeats
// them, and the self-test keeps the two equal.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_geomean_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"overhead_geomean", "x"},
	{"proven_share", "ratio"},
	{"solved_share", "ratio"},
}

var perLayer = []metricSpec{
	{"nets.build_ms", "ms"},
	{"graph.solvekey_us", "us/call"},
	{"core.build_ms", "ms/solve"},
	{"core.lp_vars", "count"},
	{"core.lp_rows", "count"},
	{"core.relax_builds", "count"},
	{"lp.root_ms", "ms/solve"},
	{"lp.root_iters", "count"},
	{"lp.root_iters_per_s", "1/s"},
	{"lp.relax_ms", "ms/solve"},
	{"lp.relax_iters", "count"},
	{"lp.warm_accept_ratio", "ratio"},
	{"milp.solve_ms_geomean", "ms/solve"},
	{"milp.bb_ms", "ms/solve"},
	{"milp.nodes", "count"},
	{"milp.nodes_per_s", "1/s"},
	{"milp.probe_ms", "ms/solve"},
	{"milp.probe_iters", "count"},
	{"milp.warm_hit_ratio", "ratio"},
	{"milp.final_gap", "ratio"},
	{"interval.solve_ms_geomean", "ms/solve"},
	{"interval.propagate_ms", "ms/solve"},
	{"interval.search_ms", "ms/solve"},
	{"interval.nodes", "count"},
	{"interval.final_gap", "ratio"},
	{"approx.solve_ms_geomean", "ms/solve"},
	{"approx.eps_points", "count"},
	{"approx.eps_incumbent_ratio", "ratio"},
	{"approx.eps_warm_ratio", "ratio"},
	{"approx.rounding_ms", "ms/solve"},
	{"schedule.plan_ms", "ms/solve"},
	{"service.server_ms_mean.solve", "ms/req"},
	{"service.server_ms_mean.solve_stream", "ms/req"},
	{"service.server_ms_mean.sweep", "ms/req"},
	{"service.miss_overhead_ms_p50", "ms/req"},
	{"service.encode_us", "us/call"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.store_share", "ratio"},
	{"service.solve_share", "ratio"},
	{"service.cache_evictions", "count"},
	{"service.solves", "count"},
	{"service.deduped", "count"},
	{"service.admission_rejected", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.puts", "count"},
	{"store.put_ms", "ms/call"},
	{"store.get_ms", "ms/call"},
	{"client.decode_us", "us/call"},
	{"telemetry.overhead_ratio", "ratio"},
}

type workload struct {
	name string
	run  func(ctx context.Context, o runOpts) (*report, error)
}

// workloads lists every workload in the order --workload all runs them.
var workloads = []workload{
	{"zoo-plan", runZoo},
	{"serve-hot", func(ctx context.Context, o runOpts) (*report, error) { return runServe(ctx, hotSpec(), o) }},
	{"serve-cold", func(ctx context.Context, o runOpts) (*report, error) { return runServe(ctx, coldSpec(), o) }},
}

// runOpts are the command-line settings every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// report is what one workload run measured. e2e and layer hold values for
// the names in endToEnd and perLayer; a layer the workload does not exercise
// reads 0. violations lists every plan that failed the plan check and every
// broken invariant; any entry makes the run incorrect.
type report struct {
	attempted, failed int
	violations        []string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
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

func main() {
	only := flag.String("workload", "all", "zoo-plan, serve-hot, serve-cold, or all")
	seed := flag.Int64("seed", 1, "seed of the serve request streams")
	seconds := flag.Int("seconds", 20, "length of one measured window in seconds (zoo-plan runs whole grid passes until it has elapsed)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced window")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	var selected []workload
	for _, w := range workloads {
		if *only == "all" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *only)
		os.Exit(2)
	}

	fmt.Println(envStamp(opts))
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	ctx := context.Background()
	for _, w := range selected {
		rep, err := w.run(ctx, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		values := rep.e2e
		if opts.trace {
			values = rep.layer
		}
		printRow(w.name, rep, specs, values)
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		if len(rep.violations) > 0 {
			out.Correct = false
		}
		for _, s := range specs {
			name := s.name
			if len(selected) > 1 {
				name = w.name + "." + s.name
			}
			out.Metrics[name] = metricValue{Value: values[s.name], Unit: s.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printRow prints one workload's metrics by name and unit, its notes, and
// any violations, ahead of the JSON result line.
func printRow(name string, rep *report, specs []metricSpec, values map[string]float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s attempted=%d failed=%d", name, rep.attempted, rep.failed)
	for _, s := range specs {
		fmt.Fprintf(&b, " %s=%.6g", s.name, values[s.name])
		if s.unit != "count" && s.unit != "ratio" {
			fmt.Fprintf(&b, "[%s]", s.unit)
		}
	}
	fmt.Println(b.String())
	for _, n := range rep.notes {
		fmt.Printf("%-10s   %s\n", "", n)
	}
	for _, v := range rep.violations {
		fmt.Printf("%-10s   VIOLATION %s\n", "", v)
	}
}

// envStamp records where and how the numbers were taken: wall-clock results
// only compare across runs with the same CPU count and toolchain.
func envStamp(o runOpts) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%.0f trace=%v zoo_time_limit=%v serve_time_limit=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		o.seed, o.seconds.Seconds(), o.trace, zooLimit, serveLimit)
}

// peakRSSMiB is the peak resident set of this process so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianSetup runs setup reps times and returns the median wall time in
// seconds. Every set-up but the last is torn down again; the caller keeps
// the last one.
func medianSetup(reps int, setup func() error, teardown func()) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	return quantile(times, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
