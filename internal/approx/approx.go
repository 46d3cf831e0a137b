// Package approx implements the paper's polynomial-time approximation
// algorithm (Section 5): solve the LP relaxation of the rematerialization
// MILP, round the fractional checkpoint matrix S*, and complete it with the
// conditionally-optimal computation matrix R (two-phase rounding,
// Algorithm 2).
//
// Because rounding ignores the memory constraint, the LP is solved against a
// deflated budget (1−ε)·M_budget (Section 5.3); the paper finds ε = 0.1 to
// work well, and Appendix D notes a search over ε can recover tighter
// schedules — implemented here as SolveWithSearch, over the grid EpsGrid.
//
// The search stops early once its best feasible rounding computes every
// node exactly once. Node costs are non-negative (graph.Validate rejects
// negative ones), so no schedule costs less than that ideal, and a later ε
// could only tie it; the sweep keeps its best on ties, so the answer is the
// full sweep's.
package approx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/telemetry"
)

// Options configure the approximation.
type Options struct {
	// Epsilon is the budget allowance of Section 5.3 (default 0.1).
	Epsilon float64
	// Threshold for deterministic rounding of S* (default 0.5).
	Threshold float64
	// Randomized switches to randomized rounding: S_int ~ Bernoulli(S*),
	// sampled Samples times with the given seed; the best feasible sample
	// wins (Appendix D / Figure 8).
	Randomized bool
	Samples    int
	Seed       int64
	// Progress, if set, is called by SolveWithSearch after every ε
	// iteration that produced a rounding, with the ε tried and its result
	// (feasibility is in r.Feasible). Iterations whose LP failed are
	// skipped. Called from the solving goroutine; must be fast.
	Progress func(eps float64, r *Result)
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Threshold == 0 {
		o.Threshold = 0.5
	}
	if o.Samples == 0 {
		o.Samples = 50
	}
	return o
}

// Result is an approximation outcome.
type Result struct {
	Sched *core.Sched
	// Cost is the schedule cost; LPObj is the relaxation objective (a lower
	// bound on the optimal integral cost).
	Cost  float64
	LPObj float64
	// PeakBytes is the schedule's peak memory including overhead.
	PeakBytes float64
	// Feasible records whether the schedule fits the original budget.
	Feasible bool
	// Search describes the whole ε-search's LP work (set on results
	// returned by SolveWithSearch; zero for single-ε solves).
	Search SearchStats
}

// SearchStats aggregates the LP work of one ε-search: how many relaxations
// ran, how many warm-started from the previous ε's basis instead of paying a
// cold solve, and the simplex iterations spent (DualIters warm, and
// DualStartIters cold, in the dual simplex).
type SearchStats struct {
	LPSolves       int
	WarmHits       int
	SimplexIters   int64
	DualIters      int64
	DualStartIters int64
}

// Solve runs two-phase rounding once at the configured ε. The underlying LP
// relaxation stops promptly when ctx is cancelled and ctx.Err() is returned.
func Solve(ctx context.Context, inst core.Instance, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	f, err := build(ctx, inst)
	if err != nil {
		return nil, err
	}
	r, _, err := solveAtEps(ctx, f, inst, opt, opt.Epsilon, nil, nil)
	return r, err
}

// build constructs the partitioned formulation the ε points share; each
// point moves its budget with SetBudget instead of rebuilding it.
func build(ctx context.Context, inst core.Instance) (*core.Formulation, error) {
	_, span := telemetry.StartSpan(ctx, "presolve")
	defer span.End()
	f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	v, r := f.Stats()
	span.SetAttr("vars", v)
	span.SetAttr("rows", r)
	return f, nil
}

// solveAtEps runs one two-phase rounding at the given ε: it moves f to the
// deflated budget, warm-starts the LP from a previous ε's basis when one is
// offered, and returns the rounding plus the basis for the next point in the
// chain. stats counts the LP whether or not it reached optimality.
func solveAtEps(ctx context.Context, f *core.Formulation, inst core.Instance, opt Options, eps float64, warm *lp.Basis, stats *SearchStats) (*Result, *lp.Basis, error) {
	ctx, span := telemetry.StartSpan(ctx, "eps_point", telemetry.A("eps", eps))
	defer span.End()
	f.SetBudget(DeflatedBudget(inst.Budget, eps))
	rel, err := f.Relax(ctx, warm)
	if stats != nil {
		stats.LPSolves++
		if rel.Warm {
			stats.WarmHits++
		}
		stats.SimplexIters += int64(rel.Iters)
		stats.DualIters += int64(rel.DualIters)
		stats.DualStartIters += int64(rel.DualStartIters)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("approx: %w", err)
	}
	if opt.Randomized {
		_, rspan := telemetry.StartSpan(ctx, "rounding", telemetry.A("samples", opt.Samples))
		r, err := bestRandomized(inst, rel.FS, rel.Obj, opt)
		rspan.End()
		return r, rel.Basis, err
	}
	_, rspan := telemetry.StartSpan(ctx, "rounding")
	s := core.TwoPhaseRound(inst.G, rel.FS, opt.Threshold, nil)
	rspan.End()
	return finish(inst, s, rel.Obj), rel.Basis, nil
}

// EpsGrid returns the ε points SolveWithSearch sweeps, in the increasing
// order it solves them.
func EpsGrid() []float64 {
	return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
}

// DeflatedBudget is the budget an ε point's LP is solved against,
// (1−ε)·budget (Section 5.3).
func DeflatedBudget(budget int64, eps float64) int64 {
	return int64(float64(budget) * (1 - eps))
}

// SolveWithSearch sweeps ε over [0, 0.5] and returns the cheapest schedule
// feasible at the true budget (the refinement suggested in Appendix D). The
// ε sweep stops between (and inside) LP solves once ctx is cancelled.
//
// The ε points run in increasing order — decreasing deflated budget — and
// each LP warm-starts from the previous point's optimal basis: the ε LPs
// differ only in the budget rows' right-hand sides, so the basis stays
// dual-feasible and reoptimizes in a few dual pivots instead of a cold
// solve (the same chaining SweepILP applies to Figure 5 curves).
//
// The sweep stops at the first ε whose LP is infeasible. The budget enters
// the formulation only through the right-hand sides of its ≤ budget rows,
// so a larger ε, a smaller budget, only shrinks the LP's feasible set: every
// later LP would be infeasible too.
//
// The sweep also stops once its best feasible rounding computes every node
// exactly once (Sched.Recomputations() == 0). Roundings are
// frontier-advancing, so each computes every node at least once, and node
// costs are non-negative: that schedule's cost is the ideal lower bound, no
// later rounding can cost strictly less, and the sweep replaces its best
// only on a strictly cheaper one. The result is the full sweep's.
//
// The returned Result's Search field records the chain's LP work, the
// infeasible LPs included.
func SolveWithSearch(ctx context.Context, inst core.Instance, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	f, err := build(ctx, inst)
	if err != nil {
		return nil, err
	}
	var best *Result
	var stats SearchStats
	var chain *lp.Basis
	for _, eps := range EpsGrid() {
		if err := ctx.Err(); err != nil {
			// Out of time mid-sweep: a feasible schedule already in hand
			// beats an error (mirrors the optimal path returning its
			// incumbent when the limit fires).
			if best != nil {
				best.Search = stats
				return best, nil
			}
			return nil, fmt.Errorf("approx: search cancelled: %w", err)
		}
		r, basis, err := solveAtEps(ctx, f, inst, opt, eps, chain, &stats)
		if err != nil {
			if ctx.Err() != nil {
				if best != nil {
					best.Search = stats
					return best, nil
				}
				return nil, fmt.Errorf("approx: search cancelled: %w", ctx.Err())
			}
			if errors.Is(err, core.ErrInfeasibleRelaxation) {
				break
			}
			continue
		}
		if basis != nil {
			chain = basis
		}
		if opt.Progress != nil {
			opt.Progress(eps, r)
		}
		if !r.Feasible {
			continue
		}
		if best == nil || r.Cost < best.Cost {
			best = r
			if r.Sched.Recomputations() == 0 {
				break
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w (budget %d)", ErrNoFeasibleRounding, inst.Budget)
	}
	best.Search = stats
	return best, nil
}

// ErrNoFeasibleRounding reports that no ε in the search produced a schedule
// within the true budget. Unlike an exact-solver infeasibility verdict this
// is not a proof — the budget may still admit a schedule the rounding
// missed — but retrying the same request cannot succeed either.
var ErrNoFeasibleRounding = errors.New("approx: no feasible rounding found at any ε")

func bestRandomized(inst core.Instance, fs *core.FractionalSched, lpObj float64, opt Options) (*Result, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	var best *Result
	var bestAny *Result
	for s := 0; s < opt.Samples; s++ {
		sched := core.TwoPhaseRound(inst.G, fs, 0, rng.Float64)
		r := finish(inst, sched, lpObj)
		if bestAny == nil || r.Cost < bestAny.Cost {
			bestAny = r
		}
		if r.Feasible && (best == nil || r.Cost < best.Cost) {
			best = r
		}
	}
	if best != nil {
		return best, nil
	}
	// No sample fit the budget; report the cheapest anyway with Feasible
	// false so callers can widen ε (mirrors the paper's observation that
	// randomized rounding rarely finds feasible points, Section 5.1).
	return bestAny, nil
}

// Samples generates sample points for the rounding-comparison experiment
// (Figure 8): every randomized-rounding sample plus the deterministic
// rounding, each reported as (cost, peak memory).
func Samples(ctx context.Context, inst core.Instance, opt Options) (det *Result, rnd []*Result, err error) {
	opt = opt.withDefaults()
	deflated := inst
	deflated.Budget = DeflatedBudget(inst.Budget, opt.Epsilon)
	fs, lpObj, err := core.SolveRelaxation(ctx, deflated, false)
	if err != nil {
		return nil, nil, err
	}
	det = finish(inst, core.TwoPhaseRound(inst.G, fs, opt.Threshold, nil), lpObj)
	rng := rand.New(rand.NewSource(opt.Seed))
	for s := 0; s < opt.Samples; s++ {
		sched := core.TwoPhaseRound(inst.G, fs, 0, rng.Float64)
		rnd = append(rnd, finish(inst, sched, lpObj))
	}
	return det, rnd, nil
}

func finish(inst core.Instance, s *core.Sched, lpObj float64) *Result {
	peak := s.Peak(inst.G, inst.Overhead)
	return &Result{
		Sched:     s,
		Cost:      s.Cost(inst.G),
		LPObj:     lpObj,
		PeakBytes: peak,
		Feasible:  peak <= float64(inst.Budget),
	}
}
