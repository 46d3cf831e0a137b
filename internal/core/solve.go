package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/telemetry"
)

// SolveOptions tune the optimal (MILP) solve.
type SolveOptions struct {
	// TimeLimit bounds wall-clock time, mirroring the paper's 3600 s solver
	// limit (Section 6.2). Zero means no limit.
	TimeLimit time.Duration
	// MaxNodes bounds branch-and-bound nodes (0 = solver default).
	MaxNodes int
	// RelGap is the relative optimality gap for early termination.
	RelGap float64
	// Unpartitioned disables frontier-advancing stages (Section 4.6),
	// yielding the much harder form measured in Appendix A.
	Unpartitioned bool
	// Seed optionally provides a feasible schedule as the initial incumbent.
	Seed *Sched
	// DisableRounding turns off the two-phase-rounding MILP heuristic.
	DisableRounding bool
	// CostCap, when positive, bounds total schedule cost (eq. (10)).
	CostCap float64
	// AggregatedFree uses the paper's exact big-κ linearization (7c)
	// instead of the tightened disaggregation (ablation only).
	AggregatedFree bool
	// Threads is the number of parallel branch-and-bound workers
	// (0 or 1 = serial).
	Threads int
	// RootBasis warm-starts the root LP relaxation with a basis from a
	// structurally identical earlier solve (Result.RootBasis) — the
	// budget-sweep fast path. An incompatible basis is ignored.
	RootBasis *lp.Basis
	// ColdStart disables all simplex warm starting (benchmarks/ablation).
	ColdStart bool
	// Dantzig selects the classic simplex pivot rules — Dantzig pricing,
	// most-infeasible dual row, single-breakpoint ratio test — instead of
	// the default devex/dual-steepest-edge/bound-flipping set. For
	// benchmarks and the pivot-rule independence tests.
	Dantzig bool
	// MostFractional selects most-fractional branching instead of the
	// default pseudo-cost rule. For benchmarks and branching-rule tests.
	MostFractional bool
	// Progress streams solver progress out of SolveILPCtx/SweepILP while
	// the search runs. The zero value reports nothing.
	Progress ProgressHooks
}

// ProgressHooks receive streaming progress from an in-flight solve. Every
// field is optional. Objectives and bounds are reported in the graph's true
// cost units (the MILP's internal scaling is undone). Hooks may be invoked
// from solver worker goroutines — with Threads > 1 concurrently — so they
// must be fast and safe for concurrent use; slow hooks stall the search.
type ProgressHooks struct {
	// Started fires once per solve, after the MILP is built, with the
	// budget under optimization and the problem dimensions.
	Started func(budget int64, vars, rows int)
	// Incumbent fires whenever the branch-and-bound incumbent improves
	// (including the initial seed), with the new schedule cost and the
	// proven lower bound at that moment (-Inf until the root LP finishes).
	Incumbent func(cost, bound float64)
	// Bound fires whenever the proven lower bound improves; reported
	// bounds are monotone non-decreasing within one solve.
	Bound func(bound float64)
	// SweepPoint fires after each budget of SweepILP completes, with the
	// point's index into the caller's budgets slice.
	SweepPoint func(index int, budget int64, res *Result)
}

// Result is the outcome of an optimal or approximate solve.
type Result struct {
	Sched *Sched
	// Cost is the schedule cost in the graph's cost units.
	Cost float64
	// Status is the underlying MILP status.
	Status milp.Status
	// Bound is the proven lower bound on the optimal cost (cost units).
	Bound float64
	// RootLPObj is the root LP relaxation objective (cost units); the
	// integrality gap of Appendix A is Cost/RootLPObj.
	RootLPObj float64
	// RootBasis is the root relaxation's optimal basis; feed it to the next
	// solve of the same graph at a different budget (SolveOptions.RootBasis)
	// so even the root LP starts warm. Nil when the root did not reach
	// optimality.
	RootBasis *lp.Basis
	// Solver aggregates simplex/branch-and-bound performance counters.
	Solver    milp.Counters
	Nodes     int
	Vars      int
	Rows      int
	SolveTime time.Duration
}

// SolveILP builds and optimizes the complete MILP (9) for the instance,
// returning the best schedule found. A feasible result is returned even when
// optimality was not proven within the limits (Status reports which).
//
// Deprecated: use SolveILPCtx. This wrapper cannot be cancelled — it mints
// its own background context — so a caller with a deadline or a request
// context gets neither.
func SolveILP(inst Instance, opt SolveOptions) (*Result, error) {
	return SolveILPCtx(context.Background(), inst, opt)
}

// SolveILPCtx is SolveILP with cancellation: when ctx is cancelled the
// branch-and-bound search (and any in-flight simplex solve) stops promptly
// and ctx.Err() is returned. Long-lived callers — the planning service — use
// this to bound per-request solve time and to abandon solves whose clients
// have gone away.
func SolveILPCtx(ctx context.Context, inst Instance, opt SolveOptions) (*Result, error) {
	_, bspan := telemetry.StartSpan(ctx, "presolve")
	f, err := Build(inst, BuildOptions{FrontierAdvancing: !opt.Unpartitioned, CostCap: opt.CostCap, AggregatedFree: opt.AggregatedFree})
	if err != nil {
		bspan.End()
		return nil, err
	}
	v, r := f.Stats()
	bspan.SetAttr("vars", v)
	bspan.SetAttr("rows", r)
	bspan.End()
	start := time.Now()

	mctx, mspan := telemetry.StartSpan(ctx, "branch_and_bound", telemetry.A("budget", inst.Budget))
	defer mspan.End()

	mopt := milp.Options{
		TimeLimit: opt.TimeLimit,
		MaxNodes:  opt.MaxNodes,
		RelGap:    opt.RelGap,
		Context:   mctx,
		Threads:   opt.Threads,
		RootBasis: opt.RootBasis,
		ColdStart: opt.ColdStart,
		LPOpts:    lp.Options{Dantzig: opt.Dantzig},
	}
	if opt.MostFractional {
		mopt.Branch = milp.BranchMostFractional
	}
	if opt.Progress.Started != nil {
		v, r := f.Stats()
		opt.Progress.Started(inst.Budget, v, r)
	}
	if cb := opt.Progress.Incumbent; cb != nil {
		mopt.OnImprove = func(obj, bound float64) { cb(f.TrueCost(obj), f.TrueCost(bound)) }
	}
	if cb := opt.Progress.Bound; cb != nil {
		mopt.OnBound = func(bound float64) { cb(f.TrueCost(bound)) }
	}
	if !opt.DisableRounding && !opt.Unpartitioned {
		mopt.Heuristic = RoundingHeuristic(f)
	}
	// Seed with the caller's schedule, else try checkpoint-all (feasible
	// whenever the budget is loose enough to hold every activation).
	seed := opt.Seed
	if seed == nil {
		ca := CheckpointAll(inst.G)
		if ca.Peak(inst.G, inst.Overhead) <= float64(inst.Budget) {
			seed = ca
		}
	}
	if seed != nil && opt.CostCap > 0 && seed.Cost(inst.G) > opt.CostCap {
		seed = nil
	}
	if seed != nil {
		if x, err := f.InjectIncumbent(seed); err == nil {
			mopt.Incumbent = x
		}
	}

	sol := milp.Solve(f.Prob, mopt)
	mspan.SetAttr("nodes", sol.Nodes)
	mspan.SetAttr("status", sol.Status.String())
	if sol.Err != nil {
		// A contained worker panic: the process survived, but the search is
		// unfinished and untrustworthy — surface it ahead of any deadline.
		mspan.SetAttr("panic", sol.Err.Error())
		return nil, fmt.Errorf("core: solver worker failed: %w", sol.Err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: solve cancelled: %w", err)
	}
	res := &Result{
		Status:    sol.Status,
		Nodes:     sol.Nodes,
		SolveTime: time.Since(start),
		RootLPObj: f.TrueCost(sol.RootLPObj),
		Bound:     f.TrueCost(sol.Bound),
		RootBasis: sol.RootBasis,
		Solver:    sol.Counters,
	}
	res.Vars, res.Rows = f.Stats()
	if sol.Status == milp.StatusOptimal || sol.Status == milp.StatusFeasible {
		res.Sched = f.ExtractSched(sol.X)
		res.Cost = res.Sched.Cost(inst.G)
		if err := res.Sched.Validate(inst.G, !opt.Unpartitioned); err != nil {
			return nil, fmt.Errorf("core: solver returned invalid schedule: %w", err)
		}
	}
	return res, nil
}

// SweepILP solves the instance at several budgets — the Figure 5 trade-off
// curve — threading warm starts between the points. Budgets are solved in
// decreasing order, each solve seeded with the previous point's root basis
// (the problems differ only in the budget rows' RHS, so the basis stays
// dual-feasible and the root LP reoptimizes in a handful of dual pivots) and
// with the previous schedule as the MILP incumbent when it still fits.
// Results are returned aligned with the budgets slice; a point whose budget
// is infeasible yields a Result with Status milp.StatusInfeasible, exactly
// as SolveILP would. inst.Budget is ignored.
func SweepILP(ctx context.Context, inst Instance, budgets []int64, opt SolveOptions) ([]*Result, error) {
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return budgets[order[a]] > budgets[order[b]] })

	results := make([]*Result, len(budgets))
	var prevBasis *lp.Basis
	var prevSched *Sched
	for _, i := range order {
		pinst := inst
		pinst.Budget = budgets[i]
		popt := opt
		popt.RootBasis = prevBasis
		if popt.Seed == nil {
			popt.Seed = prevSched // SolveILP drops it if it no longer fits
		}
		res, err := SolveILPCtx(ctx, pinst, popt)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at budget %d: %w", budgets[i], err)
		}
		results[i] = res
		if opt.Progress.SweepPoint != nil {
			opt.Progress.SweepPoint(i, budgets[i], res)
		}
		if res.RootBasis != nil {
			prevBasis = res.RootBasis
		}
		if res.Sched != nil {
			prevSched = res.Sched
		}
	}
	return results, nil
}

// SolveRelaxation solves the LP relaxation of problem (9) (Section 5.1),
// returning the fractional matrices and the relaxation objective in cost
// units — a lower bound on the optimal integral cost.
//
// Deprecated: use SolveRelaxationCtx. This wrapper cannot be cancelled — it
// mints its own background context — so a caller with a deadline or a
// request context gets neither.
func SolveRelaxation(inst Instance, unpartitioned bool) (*FractionalSched, float64, error) {
	return SolveRelaxationCtx(context.Background(), inst, unpartitioned)
}

// SolveRelaxationCtx is SolveRelaxation with cancellation; when ctx is
// cancelled mid-solve the simplex stops and ctx.Err() is returned.
func SolveRelaxationCtx(ctx context.Context, inst Instance, unpartitioned bool) (*FractionalSched, float64, error) {
	f, err := Build(inst, BuildOptions{FrontierAdvancing: !unpartitioned})
	if err != nil {
		return nil, 0, err
	}
	r, err := f.Relax(ctx, nil)
	if err != nil {
		return nil, 0, err
	}
	return r.FS, r.Obj, nil
}

// ErrInfeasibleRelaxation reports an LP relaxation the simplex proved
// infeasible: no fractional schedule fits the formulation's budget, so no
// integral one does either.
var ErrInfeasibleRelaxation = errors.New("core: LP relaxation: infeasible")

// Relaxation is the outcome of one chained LP-relaxation solve.
type Relaxation struct {
	FS *FractionalSched
	// Obj is the relaxation objective in cost units.
	Obj float64
	// Basis is the optimal simplex basis, reusable as the warm start of the
	// next relaxation of the same graph at a different budget — the budget
	// enters the formulation only through constraint right-hand sides, so
	// the basis stays dual-feasible and the next solve reoptimizes with a
	// few dual pivots instead of a cold solve.
	Basis *lp.Basis
	// Iters / DualIters / DualStartIters / Warm describe the solve's simplex
	// work (Warm reports whether the offered basis was actually accepted).
	Iters          int
	DualIters      int
	DualStartIters int
	Warm           bool
}

// Relax solves the formulation's LP relaxation with basis chaining for
// budget series: warm (from a previous Relaxation.Basis, nil for a cold
// start) seeds the simplex, and the returned Relaxation carries the basis
// for the next point. The approximation path's ε-search builds the
// formulation once and threads its LPs through this in decreasing-budget
// order, moving the budget with SetBudget. The simplex engine belongs to
// the formulation, so the chain reuses one engine and releases it with the
// formulation rather than parking a model-sized engine in a shared pool;
// Relax is therefore not safe for concurrent use on one formulation.
//
// When the LP does not reach optimality Relax returns an error —
// ErrInfeasibleRelaxation for a proven-infeasible LP — together with a
// Relaxation that reports only the solve's work (FS and Basis nil), so a
// caller can account for every LP it ran.
func (f *Formulation) Relax(ctx context.Context, warm *lp.Basis) (*Relaxation, error) {
	_, span := telemetry.StartSpan(ctx, "lp_relax", telemetry.A("warm", warm != nil))
	defer span.End()
	if f.solver == nil {
		f.solver = lp.NewSolver()
	}
	sol := f.solver.Solve(f.Prob.LP, lp.Options{Cancel: ctx.Done(), WarmStart: warm})
	span.SetAttr("iters", sol.Iters)
	span.SetAttr("dual_start_iters", sol.DualStartIters)
	span.SetAttr("refactors", sol.Refactors)
	span.SetAttr("accepted_warm", sol.Warm)
	rel := &Relaxation{
		Iters:          sol.Iters,
		DualIters:      sol.DualIters,
		DualStartIters: sol.DualStartIters,
		Warm:           sol.Warm,
	}
	if err := ctx.Err(); err != nil {
		return rel, fmt.Errorf("core: relaxation cancelled: %w", err)
	}
	switch sol.Status {
	case lp.StatusOptimal:
	case lp.StatusInfeasible:
		return rel, ErrInfeasibleRelaxation
	default:
		return rel, fmt.Errorf("core: LP relaxation: %v", sol.Status)
	}
	rel.FS = f.ExtractFractional(sol.X)
	rel.Obj = f.TrueCost(sol.Obj)
	rel.Basis = sol.Basis
	return rel, nil
}

// RoundingHeuristic adapts the paper's two-phase rounding (Algorithm 2) into
// a branch-and-bound incumbent heuristic: every node's LP solution is
// rounded and repaired; if the repaired schedule fits the hard budget it is
// offered as an incumbent.
func RoundingHeuristic(f *Formulation) milp.Heuristic {
	return func(x []float64) ([]float64, float64, bool) {
		fs := f.ExtractFractional(x)
		var best *Sched
		bestCost := 0.0
		// Sweep the rounding threshold: low thresholds checkpoint more
		// (cheaper, more memory), high thresholds checkpoint less. Keep the
		// cheapest budget-feasible repair.
		for _, th := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			s := TwoPhaseRound(f.Inst.G, fs, th, nil)
			if s.Peak(f.Inst.G, f.Inst.Overhead) > float64(f.Inst.Budget) {
				continue
			}
			if f.CostCap > 0 && s.Cost(f.Inst.G) > f.CostCap {
				continue
			}
			if c := s.Cost(f.Inst.G); best == nil || c < bestCost {
				best, bestCost = s, c
			}
		}
		if best == nil {
			return nil, 0, false
		}
		xi, err := f.InjectIncumbent(best)
		if err != nil {
			return nil, 0, false
		}
		return xi, bestCost / f.costScale, true
	}
}

// TwoPhaseRound implements Algorithm 2: round the fractional checkpoint
// matrix S* (deterministically at the given threshold, or with randomized
// rounding when rnd is non-nil: S_int = 1 with probability S*), then solve
// for the conditionally-optimal computation matrix R and derive FREE by
// simulation. The result always satisfies the correctness constraints; the
// caller is responsible for checking the memory budget (Section 5.3).
func TwoPhaseRound(g *graph.Graph, fs *FractionalSched, threshold float64, rnd func() float64) *Sched {
	n := fs.N
	S := boolMat(n, n)
	for t := 0; t < n; t++ {
		for i := 0; i < t; i++ { // strictly lower triangular (8b)
			if rnd != nil {
				S[t][i] = rnd() < fs.S[t][i]
			} else {
				S[t][i] = fs.S[t][i] > threshold
			}
		}
	}
	return SolveMinR(g, S)
}
