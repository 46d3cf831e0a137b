package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/approx"
	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lp"
	"repro/internal/telemetry"
)

// SolverPerf is the machine-readable record of the solver microbenchmark
// (cmd/checkmate-bench -experiment solver writes it as BENCH_solver.json).
// It tracks the wins of the solver hot path so the perf trajectory is
// visible across commits: per-node simplex work cold vs warm, the dual
// steepest-edge + bound-flipping ratio test versus the classic dual rules
// (same branching, so the comparison isolates the pivot rules), pseudo-cost
// versus most-fractional tree sizes, parallel node throughput, and the
// warm-started budget sweep and ε-search chains.
type SolverPerf struct {
	// Instance description.
	GraphNodes int   `json:"graph_nodes"`
	LPVars     int   `json:"lp_vars"`
	LPRows     int   `json:"lp_rows"`
	Budget     int64 `json:"budget"`

	// Single-MILP comparison at a tight budget (rounding heuristic off so
	// branch-and-bound does the work being measured). Cold/warm use the
	// default rules (pseudo-cost branching, steepest-edge + bound-flipping
	// dual simplex). Per-node figures describe node reoptimization only:
	// the root relaxation (the one unavoidable near-cold solve, reported as
	// RootIters) and strong-branching probe iterations are excluded.
	ColdNodes        int     `json:"cold_nodes"`
	WarmNodes        int     `json:"warm_nodes"`
	ColdSimplexIters int64   `json:"cold_simplex_iters"`
	WarmSimplexIters int64   `json:"warm_simplex_iters"`
	ColdRootIters    int64   `json:"cold_root_iters"`
	WarmRootIters    int64   `json:"warm_root_iters"`
	ColdItersPerNode float64 `json:"cold_iters_per_node"`
	WarmItersPerNode float64 `json:"warm_iters_per_node"`
	// WarmDualPerNode is the dual-simplex pivots per warm (non-root) node —
	// the direct cost of reoptimizing after a branching bound change.
	WarmDualPerNode float64 `json:"warm_dual_iters_per_node"`
	// IterRatio is cold/warm per-node simplex iterations (≥ 3 means
	// warm-started nodes reoptimize in ≤ 1/3 the pivots).
	IterRatio   float64 `json:"iter_ratio"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	Phase1Skips int64   `json:"phase1_skipped"`
	DualIters   int64   `json:"dual_iters"`
	ColdSolveMS float64 `json:"cold_solve_ms"`
	WarmSolveMS float64 `json:"warm_solve_ms"`

	// Trace-derived phase attribution of the warm solve: per-phase exclusive
	// self-time from the telemetry span tree, splitting the wall clock into
	// the root relaxation, branch-and-bound node reoptimization, and
	// strong-branching probes. Wall-clock values, so recorded but never gated.
	TraceRootLPMS float64 `json:"trace_root_lp_ms"`
	TraceBranchMS float64 `json:"trace_branch_ms"`
	TraceProbeMS  float64 `json:"trace_probe_ms"`

	// New-machinery counters of the warm solve.
	BoundFlips         int64 `json:"bound_flips"`
	PricingUpdates     int64 `json:"pricing_updates"`
	StrongBranchProbes int64 `json:"strong_branch_probes"`
	ProbeIters         int64 `json:"probe_iters"`
	PseudoReliable     int64 `json:"pseudo_reliable"`

	// Dual pivot-rule A/B under identical (most-fractional) branching:
	// per-node dual-simplex iterations with the classic rules versus dual
	// steepest-edge + bound flipping. DualIterRatio = classic/DSE — the
	// acceptance metric for the dual rework (≥ 1.5 means DSE+BFRT
	// reoptimizes warm nodes in ≤ 2/3 the dual pivots).
	DualClassicPerNode float64 `json:"dual_classic_iters_per_node"`
	DualDSEPerNode     float64 `json:"dual_dse_iters_per_node"`
	DualIterRatio      float64 `json:"dual_iter_ratio"`

	// Branching A/B under identical (default) LP rules: tree size with
	// most-fractional versus pseudo-cost branching.
	MostFracNodes   int     `json:"mostfrac_nodes"`
	BranchNodeRatio float64 `json:"branch_node_ratio"`

	// BenchCPUs is the machine's usable CPU count when the record was made.
	// The parallel ratio only means anything with ≥ 2 real CPUs — on a
	// single-core runner workers time-slice and nodes/sec is pure noise —
	// so the regression gate skips the parallel check otherwise.
	// NodesPerSec, ParNodesPerS and ParallelMS are medians over
	// throughputRuns untraced serial and parallel solves, run alternately.
	BenchCPUs    int     `json:"bench_cpus"`
	ThreadsUsed  int     `json:"threads_used"`
	ParallelMS   float64 `json:"parallel_solve_ms"`
	NodesPerSec  float64 `json:"nodes_per_sec"`
	ParNodesPerS float64 `json:"parallel_nodes_per_sec"`

	// Budget-sweep comparison: same budgets, cold per-point solves versus
	// the warm-started SweepILP chain. SweepColdMS and SweepWarmMS are
	// medians over throughputRuns sweeps of each kind, run alternately.
	SweepPoints  int     `json:"sweep_points"`
	SweepColdMS  float64 `json:"sweep_cold_ms"`
	SweepWarmMS  float64 `json:"sweep_warm_ms"`
	SweepSpeedup float64 `json:"sweep_speedup"`

	// ε-search comparison: the approximation path's LP chain cold versus
	// warm-started (basis threaded between ε points), driven through the
	// formulation over every ε of approx.EpsGrid (see epsChain).
	EpsSolves      int64   `json:"eps_solves"`
	EpsWarmHits    int64   `json:"eps_warm_hits"`
	EpsWarmHitRate float64 `json:"eps_warm_hit_rate"`
	EpsColdIters   int64   `json:"eps_cold_iters"`
	EpsWarmIters   int64   `json:"eps_warm_iters"`
	EpsIterRatio   float64 `json:"eps_iter_ratio"`
	EpsColdMS      float64 `json:"eps_cold_ms"`
	EpsWarmMS      float64 `json:"eps_warm_ms"`
	EpsSpeedup     float64 `json:"eps_speedup"`

	// Large-graph interval method: a training chain an order of magnitude
	// past the exact MILP's practical reach. The MILP gets the full scale
	// time limit to try for any incumbent; the interval method gets a small
	// fraction of it and must return a feasible schedule anyway. Wall-clock
	// figures on a graph this size vary with the runner, so the section is
	// record-only — CompareSolverPerf never gates on it.
	IntervalGraphNodes   int     `json:"interval_graph_nodes,omitempty"`
	IntervalBudget       int64   `json:"interval_budget,omitempty"`
	IntervalLPVars       int     `json:"interval_lp_vars,omitempty"`
	IntervalLPRows       int     `json:"interval_lp_rows,omitempty"`
	IntervalFeasible     bool    `json:"interval_feasible,omitempty"`
	IntervalCost         float64 `json:"interval_cost,omitempty"`
	IntervalBound        float64 `json:"interval_bound,omitempty"`
	IntervalOverhead     float64 `json:"interval_overhead,omitempty"`
	IntervalNodes        int     `json:"interval_nodes,omitempty"`
	IntervalTimeLimitMS  float64 `json:"interval_time_limit_ms,omitempty"`
	IntervalSolveMS      float64 `json:"interval_solve_ms,omitempty"`
	IntervalMILPLimitMS  float64 `json:"interval_milp_limit_ms,omitempty"`
	IntervalMILPMS       float64 `json:"interval_milp_ms,omitempty"`
	IntervalMILPTimedOut bool    `json:"interval_milp_timed_out,omitempty"`
}

// solverBenchGraph builds the unit-cost training chain the solver benchmark
// runs on: large enough to force real branch-and-bound work, small enough to
// finish in seconds.
func solverBenchGraph(layers int) (*graph.Graph, error) {
	fwd := graph.New(layers)
	for i := 0; i < layers; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < layers; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// SolverBench measures cold-start versus warm-started solver performance and
// prints a human-readable summary; the returned record is what
// cmd/checkmate-bench serializes to BENCH_solver.json. threads selects the
// worker count for the parallel measurement (0 = skip it). Every rule
// combination must prove the same optimal objective — a mismatch is an
// error, making the benchmark double as the pivot-rule independence check.
func SolverBench(ctx context.Context, w io.Writer, sc Scale, threads int) (*SolverPerf, error) {
	sc = sc.withDefaults()
	g, err := solverBenchGraph(10)
	if err != nil {
		return nil, err
	}
	minB := core.MinBudgetLowerBound(g, 0)
	peak := int64(core.CheckpointAll(g).Peak(g, 0))
	budget := minB + (peak-minB)/5 // tight: forces a real search tree
	inst := core.Instance{G: g, Budget: budget}
	// The rounding heuristic would close most of the tree at the root; this
	// benchmark isolates the LP engine, so it is disabled and optimality is
	// proven exactly.
	opt := core.SolveOptions{TimeLimit: sc.TimeLimit, DisableRounding: true}

	perf := &SolverPerf{GraphNodes: g.Len(), Budget: budget}

	t0 := time.Now()
	cold, err := core.SolveILP(ctx, inst, func() core.SolveOptions { o := opt; o.ColdStart = true; return o }())
	if err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	perf.ColdSolveMS = msSince(t0)

	// The warm solve runs under a telemetry trace so the record carries a
	// phase breakdown (root LP vs node work vs probes), not just totals.
	tr := telemetry.NewTrace()
	t0 = time.Now()
	warm, err := core.SolveILP(telemetry.WithTrace(ctx, tr), inst, opt)
	if err != nil {
		return nil, fmt.Errorf("warm solve: %w", err)
	}
	perf.WarmSolveMS = msSince(t0)
	phases := tr.ExclusiveTotals()
	perf.TraceRootLPMS = float64(phases["root_lp"].Microseconds()) / 1e3
	perf.TraceBranchMS = float64(phases["node_batch"].Microseconds()) / 1e3
	perf.TraceProbeMS = float64(phases["probe"].Microseconds()) / 1e3

	perf.LPVars, perf.LPRows = cold.Vars, cold.Rows
	perf.ColdNodes, perf.WarmNodes = cold.Nodes, warm.Nodes
	perf.ColdSimplexIters = cold.Solver.SimplexIters
	perf.WarmSimplexIters = warm.Solver.SimplexIters
	perf.ColdRootIters = cold.Solver.RootIters
	perf.WarmRootIters = warm.Solver.RootIters
	perNode := func(iters, root int64, nodes int) float64 {
		if nodes <= 1 {
			return 0
		}
		return float64(iters-root) / float64(nodes-1)
	}
	perf.ColdItersPerNode = perNode(cold.Solver.SimplexIters, cold.Solver.RootIters, cold.Nodes)
	perf.WarmItersPerNode = perNode(warm.Solver.SimplexIters, warm.Solver.RootIters, warm.Nodes)
	perf.WarmDualPerNode = perNode(warm.Solver.DualIters, 0, warm.Nodes)
	if perf.WarmItersPerNode > 0 {
		perf.IterRatio = perf.ColdItersPerNode / perf.WarmItersPerNode
	}
	if h, m := warm.Solver.WarmHits, warm.Solver.WarmMisses; h+m > 0 {
		perf.WarmHitRate = float64(h) / float64(h+m)
	}
	perf.Phase1Skips = warm.Solver.Phase1Skipped
	perf.DualIters = warm.Solver.DualIters
	perf.BoundFlips = warm.Solver.BoundFlips
	perf.PricingUpdates = warm.Solver.PricingUpdates
	perf.StrongBranchProbes = warm.Solver.StrongBranchProbes
	perf.ProbeIters = warm.Solver.ProbeIters
	perf.PseudoReliable = warm.Solver.PseudoReliable

	// Dual pivot-rule A/B: identical most-fractional branching isolates the
	// dual-simplex changes; per-node dual pivots are the comparison.
	mfDSE, err := core.SolveILP(ctx, inst, func() core.SolveOptions { o := opt; o.MostFractional = true; return o }())
	if err != nil {
		return nil, fmt.Errorf("mostfrac+dse solve: %w", err)
	}
	mfClassic, err := core.SolveILP(ctx, inst, func() core.SolveOptions {
		o := opt
		o.MostFractional = true
		o.Dantzig = true
		return o
	}())
	if err != nil {
		return nil, fmt.Errorf("mostfrac+classic solve: %w", err)
	}
	pcClassic, err := core.SolveILP(ctx, inst, func() core.SolveOptions { o := opt; o.Dantzig = true; return o }())
	if err != nil {
		return nil, fmt.Errorf("pseudo+classic solve: %w", err)
	}
	for _, res := range []*core.Result{cold, mfDSE, mfClassic, pcClassic} {
		if diff := res.Cost - warm.Cost; math.Abs(diff) > 1e-6 {
			return nil, fmt.Errorf("pivot-rule independence violated: objective %v != %v", res.Cost, warm.Cost)
		}
	}
	perf.DualClassicPerNode = perNode(mfClassic.Solver.DualIters, 0, mfClassic.Nodes)
	perf.DualDSEPerNode = perNode(mfDSE.Solver.DualIters, 0, mfDSE.Nodes)
	if perf.DualDSEPerNode > 0 {
		perf.DualIterRatio = perf.DualClassicPerNode / perf.DualDSEPerNode
	}
	perf.MostFracNodes = mfDSE.Nodes
	if warm.Nodes > 0 {
		perf.BranchNodeRatio = float64(mfDSE.Nodes) / float64(warm.Nodes)
	}

	// Node throughput: medians over untraced solves, since one solve of this
	// ~20-node tree takes ~100 ms and a single run is at the mercy of the
	// scheduler. Serial and parallel solves alternate, so drift on the
	// machine reaches both sides of the gated ratio alike.
	perf.BenchCPUs = runtime.NumCPU()
	parOpt := opt
	parOpt.Threads = threads
	var serialRates, parRates, parMS []float64
	for i := 0; i < throughputRuns; i++ {
		ser, err := core.SolveILP(ctx, inst, opt)
		if err != nil {
			return nil, fmt.Errorf("serial solve: %w", err)
		}
		serialRates = append(serialRates, ser.Solver.NodesPerSec)
		if threads <= 1 {
			continue
		}
		t0 = time.Now()
		par, err := core.SolveILP(ctx, inst, parOpt)
		if err != nil {
			return nil, fmt.Errorf("parallel solve: %w", err)
		}
		parMS = append(parMS, msSince(t0))
		parRates = append(parRates, par.Solver.NodesPerSec)
		if diff := par.Cost - warm.Cost; diff > 1e-6 || diff < -1e-6 {
			return nil, fmt.Errorf("parallel objective %v != serial %v", par.Cost, warm.Cost)
		}
	}
	perf.NodesPerSec = median(serialRates)
	if threads > 1 {
		perf.ThreadsUsed = threads
		perf.ParallelMS = median(parMS)
		perf.ParNodesPerS = median(parRates)
	}

	// Budget sweep: the service's /v1/sweep shape. Cold solves every point
	// from scratch; SweepILP chains bases point-to-point.
	points := sc.BudgetPoints
	if points < 3 {
		points = 3
	}
	budgets := make([]int64, points)
	for i := range budgets {
		budgets[i] = minB + (peak-minB)*int64(i+1)/int64(points)
	}
	// One sweep takes a few hundred milliseconds, so a single cold/warm
	// pair's ratio is at the mercy of the scheduler: the gate compares
	// medians over throughputRuns sweeps of each kind, run alternately.
	sweepOpt := core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap}
	var coldMS, warmMS []float64
	for i := 0; i < throughputRuns; i++ {
		t0 = time.Now()
		for _, b := range budgets {
			o := sweepOpt
			o.ColdStart = true
			pinst := inst
			pinst.Budget = b
			if _, err := core.SolveILP(ctx, pinst, o); err != nil {
				return nil, fmt.Errorf("cold sweep at %d: %w", b, err)
			}
		}
		coldMS = append(coldMS, msSince(t0))
		t0 = time.Now()
		if _, err := core.SweepILP(ctx, inst, budgets, sweepOpt); err != nil {
			return nil, fmt.Errorf("warm sweep: %w", err)
		}
		warmMS = append(warmMS, msSince(t0))
	}
	perf.SweepColdMS = median(coldMS)
	perf.SweepWarmMS = median(warmMS)
	perf.SweepPoints = points
	if perf.SweepWarmMS > 0 {
		perf.SweepSpeedup = perf.SweepColdMS / perf.SweepWarmMS
	}

	// ε-search: the approximation path's LP chain, cold vs warm-started.
	// The loose budget mirrors how the approx method is used (it needs
	// headroom for the (1−ε) deflation to stay feasible). The chain runs
	// through the formulation rather than the search: the search stops at
	// its first ideal-cost rounding, which on this chain is the first LP.
	einst := core.Instance{G: g, Budget: minB + (peak-minB)/2}
	t0 = time.Now()
	ecold, err := epsChain(ctx, einst, false)
	if err != nil {
		return nil, fmt.Errorf("eps chain cold: %w", err)
	}
	perf.EpsColdMS = msSince(t0)
	t0 = time.Now()
	ewarm, err := epsChain(ctx, einst, true)
	if err != nil {
		return nil, fmt.Errorf("eps chain warm: %w", err)
	}
	perf.EpsWarmMS = msSince(t0)
	if ewarm.LPSolves < 2 {
		return nil, fmt.Errorf("eps chain ran %d LP(s) at budget %d; a warm-start comparison needs at least 2", ewarm.LPSolves, einst.Budget)
	}
	perf.EpsSolves = int64(ewarm.LPSolves)
	perf.EpsWarmHits = int64(ewarm.WarmHits)
	// The first ε point is necessarily cold; the hit rate is over the
	// chainable remainder.
	perf.EpsWarmHitRate = float64(perf.EpsWarmHits) / float64(perf.EpsSolves-1)
	perf.EpsColdIters = ecold.SimplexIters
	perf.EpsWarmIters = ewarm.SimplexIters
	if perf.EpsWarmIters > 0 {
		perf.EpsIterRatio = float64(perf.EpsColdIters) / float64(perf.EpsWarmIters)
	}
	if perf.EpsWarmMS > 0 {
		perf.EpsSpeedup = perf.EpsColdMS / perf.EpsWarmMS
	}

	fmt.Fprintf(w, "# Solver hot-path benchmark: %d-node chain, budget %d (tight), LP %d vars × %d rows\n",
		perf.GraphNodes, perf.Budget, perf.LPVars, perf.LPRows)
	fmt.Fprintf(w, "cold:  %5d nodes, %7d simplex iters (%7.1f/node beyond the root's %d), %8.1f ms\n",
		perf.ColdNodes, perf.ColdSimplexIters, perf.ColdItersPerNode, perf.ColdRootIters, perf.ColdSolveMS)
	fmt.Fprintf(w, "warm:  %5d nodes, %7d simplex iters (%7.1f/node beyond the root's %d), %8.1f ms  [%.0f%% hit rate, %d phase-1 skips, %.1f dual pivots/node, %d flips]\n",
		perf.WarmNodes, perf.WarmSimplexIters, perf.WarmItersPerNode, perf.WarmRootIters, perf.WarmSolveMS,
		100*perf.WarmHitRate, perf.Phase1Skips, perf.WarmDualPerNode, perf.BoundFlips)
	fmt.Fprintf(w, "per-node iteration ratio (cold/warm): %.2fx\n", perf.IterRatio)
	fmt.Fprintf(w, "warm-solve phases (trace self-time): root LP %.1f ms, node work %.1f ms, probes %.1f ms\n",
		perf.TraceRootLPMS, perf.TraceBranchMS, perf.TraceProbeMS)
	fmt.Fprintf(w, "dual rules (most-frac tree): classic %.1f dual iters/node, DSE+flips %.1f — %.2fx fewer\n",
		perf.DualClassicPerNode, perf.DualDSEPerNode, perf.DualIterRatio)
	fmt.Fprintf(w, "branching: most-fractional %d nodes vs pseudo-cost %d — %.2fx smaller tree [%d probes, %d probe iters, %d reliable]\n",
		perf.MostFracNodes, perf.WarmNodes, perf.BranchNodeRatio,
		perf.StrongBranchProbes, perf.ProbeIters, perf.PseudoReliable)
	if perf.ThreadsUsed > 1 {
		fmt.Fprintf(w, "parallel (%d threads): %8.1f ms, %.0f nodes/s (serial %.0f nodes/s), medians of %d runs\n",
			perf.ThreadsUsed, perf.ParallelMS, perf.ParNodesPerS, perf.NodesPerSec, throughputRuns)
	}
	fmt.Fprintf(w, "sweep (%d budgets): cold %.1f ms, warm %.1f ms — %.2fx\n",
		perf.SweepPoints, perf.SweepColdMS, perf.SweepWarmMS, perf.SweepSpeedup)
	fmt.Fprintf(w, "eps LP chain (%d LPs): %d/%d warm hits, iters %d cold vs %d warm (%.2fx), %.1f ms vs %.1f ms (%.2fx)\n",
		perf.EpsSolves, perf.EpsWarmHits, perf.EpsSolves-1, perf.EpsColdIters, perf.EpsWarmIters,
		perf.EpsIterRatio, perf.EpsColdMS, perf.EpsWarmMS, perf.EpsSpeedup)

	if err := intervalBench(ctx, w, sc, perf); err != nil {
		return nil, err
	}
	return perf, nil
}

// epsChain solves the ε-search's LPs the way approx.SolveWithSearch
// does, without its rounding or its ideal-cost stop: one formulation, every
// ε of approx.EpsGrid at its deflated budget, each LP warm-started from the
// previous one's basis when warm is set. Like the search it stops after the
// first infeasible LP, which it counts.
func epsChain(ctx context.Context, inst core.Instance, warm bool) (approx.SearchStats, error) {
	var st approx.SearchStats
	f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		return st, err
	}
	var chain *lp.Basis
	for _, eps := range approx.EpsGrid() {
		f.SetBudget(approx.DeflatedBudget(inst.Budget, eps))
		rel, err := f.Relax(ctx, chain)
		st.LPSolves++
		if rel.Warm {
			st.WarmHits++
		}
		st.SimplexIters += int64(rel.Iters)
		if errors.Is(err, core.ErrInfeasibleRelaxation) {
			break
		}
		if err != nil {
			return st, fmt.Errorf("ε=%v: %w", eps, err)
		}
		if warm {
			chain = rel.Basis
		}
	}
	return st, nil
}

// intervalBench runs the large-graph interval-method section: a 150-layer
// training chain (~300 scheduled nodes) at a tight budget. The exact MILP
// gets the full scale time limit to look for any incumbent; the interval
// method gets at most half of it (capped at 30 s) and must still return
// a feasible schedule with an admissible bound.
func intervalBench(ctx context.Context, w io.Writer, sc Scale, perf *SolverPerf) error {
	big, err := solverBenchGraph(150)
	if err != nil {
		return err
	}
	minB := core.MinBudgetLowerBound(big, 0)
	peak := int64(core.CheckpointAll(big).Peak(big, 0))
	budget := minB + (peak-minB)/5
	inst := core.Instance{G: big, Budget: budget}
	perf.IntervalGraphNodes = big.Len()
	perf.IntervalBudget = budget

	milpLimit := sc.TimeLimit
	perf.IntervalMILPLimitMS = float64(milpLimit.Milliseconds())
	t0 := time.Now()
	mres, err := core.SolveILP(ctx, inst, core.SolveOptions{TimeLimit: milpLimit, RelGap: sc.RelGap})
	if err != nil {
		return fmt.Errorf("interval bench: milp attempt: %w", err)
	}
	perf.IntervalMILPMS = msSince(t0)
	perf.IntervalMILPTimedOut = mres.Sched == nil

	ivLimit := sc.TimeLimit / 2
	if ivLimit > 30*time.Second {
		ivLimit = 30 * time.Second
	}
	perf.IntervalTimeLimitMS = float64(ivLimit.Milliseconds())
	t0 = time.Now()
	ires, err := interval.Solve(ctx, inst, interval.Options{TimeLimit: ivLimit, RelGap: sc.RelGap})
	if err != nil {
		return fmt.Errorf("interval bench: %w", err)
	}
	perf.IntervalSolveMS = msSince(t0)
	perf.IntervalLPVars, perf.IntervalLPRows = ires.Vars, ires.Rows
	perf.IntervalNodes = ires.Nodes
	if ires.Sched != nil {
		if p := ires.Sched.Peak(big, 0); p > float64(budget)+0.5 {
			return fmt.Errorf("interval bench: schedule peak %v exceeds budget %d", p, budget)
		}
		perf.IntervalFeasible = true
		perf.IntervalCost = ires.Cost
		perf.IntervalOverhead = ires.Cost / big.TotalCost()
	}
	if !math.IsInf(ires.Bound, 0) && !math.IsNaN(ires.Bound) {
		perf.IntervalBound = ires.Bound
	}

	milpState := "no incumbent"
	if !perf.IntervalMILPTimedOut {
		milpState = fmt.Sprintf("incumbent cost %.6g", mres.Cost)
	}
	fmt.Fprintf(w, "interval (large graph): %d nodes, budget %d — MILP %s within %.0f s; interval cost %.6g (%.3fx ideal, bound %.6g) in %.1f s, %d search nodes, LP %d vars × %d rows\n",
		perf.IntervalGraphNodes, perf.IntervalBudget, milpState, perf.IntervalMILPMS/1e3,
		perf.IntervalCost, perf.IntervalOverhead, perf.IntervalBound,
		perf.IntervalSolveMS/1e3, perf.IntervalNodes, perf.IntervalLPVars, perf.IntervalLPRows)
	return nil
}

// WriteJSON serializes the record, indented for artifact diffing.
func (p *SolverPerf) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadSolverPerf loads a benchmark record written by WriteJSON.
func ReadSolverPerf(path string) (*SolverPerf, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p SolverPerf
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &p, nil
}

// CompareSolverPerf checks the current record against a committed baseline,
// returning one message per regressed metric. Only machine-speed-neutral
// metrics are compared — absolute wall-clock fields vary with the runner
// and are ignored. Three classes, by noise profile:
//
//   - Iteration ratios (warm-start, dual pivot rules, ε-search) come from
//     deterministic serial solves and gate at tol (fractional, e.g. 0.2).
//   - Wall-clock speedups (cold/warm on the same machine, but built from a
//     few hundred milliseconds) gate at 2.5·tol. The sweep speedup is the
//     ratio of medians over alternating sweeps.
//   - The parallel/serial node-throughput ratio (of the medians over
//     alternating untraced solves) is timing-dependent on the benchmark's
//     small tree, so it gates against the absolute invariant — parallel
//     must at least roughly match serial — rather than the baseline's
//     (possibly lucky) value.
//
// Metrics the baseline predates (zero value) are skipped so the gate can be
// introduced without a flag day.
func CompareSolverPerf(baseline, cur *SolverPerf, tol float64) []string {
	var regressions []string
	check := func(name string, base, now, frac float64) {
		if base <= 0 {
			return // metric absent from the baseline
		}
		if now < base*(1-frac) {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed: %.3f vs baseline %.3f (tolerance %.0f%%)", name, now, base, 100*frac))
		}
	}
	check("iter_ratio (warm-start win)", baseline.IterRatio, cur.IterRatio, tol)
	check("dual_iter_ratio (DSE+flips win)", baseline.DualIterRatio, cur.DualIterRatio, tol)
	check("eps_iter_ratio (ε-search win)", baseline.EpsIterRatio, cur.EpsIterRatio, tol)
	check("warm_hit_rate", baseline.WarmHitRate, cur.WarmHitRate, tol)
	check("eps_warm_hit_rate", baseline.EpsWarmHitRate, cur.EpsWarmHitRate, tol)
	check("sweep_speedup", baseline.SweepSpeedup, cur.SweepSpeedup, 2.5*tol)
	check("eps_speedup", baseline.EpsSpeedup, cur.EpsSpeedup, 2.5*tol)
	if baseline.ParNodesPerS > 0 && cur.NodesPerSec > 0 && cur.ThreadsUsed > 1 && cur.BenchCPUs > 1 {
		check("parallel/serial nodes-per-sec ratio", 1.0, cur.ParNodesPerS/cur.NodesPerSec, tol)
	}
	return regressions
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// throughputRuns is how many untraced runs each side of a timed comparison
// (node throughput, budget sweeps) takes its median over.
const throughputRuns = 5

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
