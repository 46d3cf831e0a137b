// Package lp implements a linear-programming solver: a bounded-variable
// revised simplex method, primal and dual, with a sparse LU basis
// factorization and product-form (eta) updates.
//
// Checkmate's optimal rematerialization formulation (paper Section 4.7) is a
// mixed integer linear program. The paper solves it with Gurobi or COIN-OR;
// neither is available as a pure-Go, stdlib-only dependency, so this package
// provides the LP engine underneath our own branch-and-bound (package milp)
// and the LP-relaxation used by the two-phase rounding approximation
// (paper Section 5.1).
//
// Problems are stated as
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ   for each row i
//	            l ≤ x ≤ u          (bounds may be ±Inf)
//
// Internally every row receives a slack variable turning the system into
// Ax + Is = b with bounded slacks. A cold solve starts from the slack basis
// with every structural at a bound. When that basis is dual-feasible — each
// cost has the sign its bound favours, as in every Checkmate LP, whose costs
// are all nonnegative — the dual simplex drives out the primal
// infeasibilities; otherwise, or if the dual start breaks down, a textbook
// two-phase primal method with explicit artificial variables does. A dual
// start is done when every basic variable is within Tol of its bounds and
// their summed violation is too; when only the rows pass, it refactors and
// pivots on with a row threshold of Tol/m instead of restarting.
//
// A dual pivot costs only the nonzeros it touches. Its FTRAN and BTRAN
// carry the right-hand side's nonzero pattern through the factors and the
// eta file, visiting U in the dense sweep's position order by a heap and
// finishing with the plain sweep once the pattern passes m/16 entries; the
// leaving row comes from a list of the infeasible rows. Every sum runs over
// the same terms in the same order as a dense pass, so the pivots are the
// same as with dense solves, bit for bit.
//
// A refactorization spends its work on the basis's structural columns. The
// slack columns, which fill most basis slots, are unit columns: it visits
// them without the column callback and without elimination, giving each the
// diagonal 1 and the empty L and U columns that elimination would compute.
// The factors, and so every pivot, are bit for bit those of eliminating
// every column.
package lp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Sense is a row's comparison operator.
type Sense int8

// Row senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Inf is a convenience alias for +infinity bounds.
var Inf = math.Inf(1)

// Problem is a linear program under construction. The zero value is an empty
// problem ready for use. Problems are not safe for concurrent mutation.
type Problem struct {
	cost  []float64
	lower []float64
	upper []float64
	names []string

	rowSense []Sense
	rowRHS   []float64
	rowIdx   [][]int32
	rowVal   [][]float64

	startUpper []bool // initial-point hints: park variable at its upper bound

	rowPos []int32 // AddRow scratch, all zero between calls
}

// NumVars returns the number of structural variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rowRHS) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient c,
// returning its column index. name is used in diagnostics only.
func (p *Problem) AddVar(lo, hi, c float64, name string) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	p.cost = append(p.cost, c)
	p.lower = append(p.lower, lo)
	p.upper = append(p.upper, hi)
	p.names = append(p.names, name)
	p.startUpper = append(p.startUpper, false)
	return len(p.cost) - 1
}

// SetStartHint marks variable j to start at its upper bound (instead of the
// default bound nearest zero) when the simplex builds its initial point. A
// good hint can place the starting basis near feasibility and sharply cut
// phase-1 work; hints never affect correctness.
func (p *Problem) SetStartHint(j int, atUpper bool) { p.startUpper[j] = atUpper }

// SetBounds overwrites the bounds of variable j.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%d) lo %g > hi %g", j, lo, hi))
	}
	p.lower[j], p.upper[j] = lo, hi
}

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lower[j], p.upper[j] }

// SetCost overwrites the objective coefficient of variable j.
func (p *Problem) SetCost(j int, c float64) { p.cost[j] = c }

// Cost returns the objective coefficient of variable j.
func (p *Problem) Cost(j int) float64 { return p.cost[j] }

// Name returns the diagnostic name of variable j.
func (p *Problem) Name(j int) string { return p.names[j] }

// AddRow adds the constraint Σ vals[k]·x[idxs[k]] (sense) rhs. Duplicate
// indices within one row are coalesced. Zero coefficients are dropped.
func (p *Problem) AddRow(sense Sense, rhs float64, idxs []int32, vals []float64) int {
	if len(idxs) != len(vals) {
		panic("lp: AddRow index/value length mismatch")
	}
	if len(p.rowPos) < len(p.cost) {
		p.rowPos = append(p.rowPos, make([]int32, len(p.cost)-len(p.rowPos))...)
	}
	// Coalesce duplicates and drop zeros without disturbing caller slices;
	// rowPos[j] holds 1 + j's position in this row while the row is built.
	ci := make([]int32, 0, len(idxs))
	cv := make([]float64, 0, len(vals))
	for k, j := range idxs {
		if int(j) < 0 || int(j) >= len(p.cost) {
			for _, c := range ci {
				p.rowPos[c] = 0
			}
			panic(fmt.Sprintf("lp: AddRow references unknown variable %d", j))
		}
		if pos := p.rowPos[j]; pos > 0 {
			cv[pos-1] += vals[k]
			continue
		}
		ci = append(ci, j)
		cv = append(cv, vals[k])
		p.rowPos[j] = int32(len(ci))
	}
	// Drop exact zeros.
	wi, wv := ci[:0], cv[:0]
	for k, j := range ci {
		p.rowPos[j] = 0
		if cv[k] != 0 {
			wi = append(wi, j)
			wv = append(wv, cv[k])
		}
	}
	p.rowSense = append(p.rowSense, sense)
	p.rowRHS = append(p.rowRHS, rhs)
	p.rowIdx = append(p.rowIdx, wi)
	p.rowVal = append(p.rowVal, wv)
	return len(p.rowRHS) - 1
}

// SetRHS overwrites the right-hand side of row i.
func (p *Problem) SetRHS(i int, rhs float64) { p.rowRHS[i] = rhs }

// Clone returns a deep copy. Useful for branch-and-bound, which mutates
// bounds per node.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		cost:       append([]float64(nil), p.cost...),
		lower:      append([]float64(nil), p.lower...),
		upper:      append([]float64(nil), p.upper...),
		names:      append([]string(nil), p.names...),
		rowSense:   append([]Sense(nil), p.rowSense...),
		rowRHS:     append([]float64(nil), p.rowRHS...),
		rowIdx:     make([][]int32, len(p.rowIdx)),
		rowVal:     make([][]float64, len(p.rowVal)),
		startUpper: append([]bool(nil), p.startUpper...),
	}
	// Row coefficient slices are never mutated after AddRow, so they can be
	// shared between clones.
	copy(q.rowIdx, p.rowIdx)
	copy(q.rowVal, p.rowVal)
	return q
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Obj is the objective value (valid when Status == StatusOptimal).
	Obj float64
	// X holds the structural variable values.
	X []float64
	// Duals holds the simplex dual vector y (one entry per row) at
	// optimality; empty if the solve did not reach phase-2 optimality.
	// By weak duality, DualBound(y) ≤ optimal objective for any sign-correct
	// y, and equals Obj at optimality.
	Duals []float64
	// Iters is the total simplex iterations across all phases (primal phase
	// 1 and 2, plus any dual-simplex reoptimization pivots).
	Iters int
	// Refactors counts the solve's basis refactorizations: one for each
	// basis it installs, one every Options.RefactorEvery eta updates, and
	// one wherever it needs exact basic values or rejects an eta.
	Refactors int
	// Phase1Iters is the portion of Iters spent in the phase-1 feasibility
	// search; 0 when phase 1 was skipped (feasible start or warm start).
	Phase1Iters int
	// DualIters is the portion of Iters spent in dual-simplex
	// reoptimization of an accepted warm-start basis.
	DualIters int
	// DualStartIters is the portion of Iters the dual simplex spent from
	// the cold slack basis (see Solve); 0 when the slack basis was
	// primal-feasible, was not dual-feasible, or a warm start drove the
	// solve.
	DualStartIters int
	// BoundFlips counts nonbasic variables the long-step (bound-flipping)
	// dual ratio test moved bound-to-bound without a basis change. Each flip
	// stands in for a full dual pivot, so on box-constrained problems a high
	// flip count means far fewer pivots for the same reoptimization.
	BoundFlips int
	// PricingUpdates counts dual steepest-edge reference-weight updates
	// (one per row touched by a dual pivot's Forrest–Goldfarb update).
	PricingUpdates int
	// Warm reports that a warm-start basis was accepted and drove the solve;
	// false when no basis was offered or the solver fell back to a cold
	// two-phase start.
	Warm bool
	// Basis is the optimal basis snapshot, exported when Status ==
	// StatusOptimal. It warm-starts a later solve of the same problem after
	// bound or RHS changes (see Options.WarmStart).
	Basis *Basis
	// Elapsed is the wall-clock time of this solve, stamped by the engine so
	// callers (telemetry spans, phase accounting) need not time it themselves.
	Elapsed time.Duration
}

// DualBound evaluates the Lagrangian dual bound g(y) for the problem:
// g(y) = bᵀy + Σⱼ min(rcⱼ·lⱼ, rcⱼ·uⱼ) with rcⱼ = cⱼ − yᵀaⱼ. For any y with
// sign pattern matching the row senses (y ≤ 0 on ≤-rows, y ≥ 0 on ≥-rows),
// g(y) is a lower bound on the optimum; at an optimal basis it is tight.
// Returns -Inf if a free variable has nonzero reduced cost.
func (p *Problem) DualBound(y []float64) float64 {
	rc := append([]float64(nil), p.cost...)
	for i := range p.rowRHS {
		if y[i] == 0 {
			continue
		}
		for k, j := range p.rowIdx[i] {
			rc[j] -= y[i] * p.rowVal[i][k]
		}
	}
	var g float64
	for i := range p.rowRHS {
		g += y[i] * p.rowRHS[i]
	}
	for j := range rc {
		switch {
		case rc[j] > 0:
			if math.IsInf(p.lower[j], -1) {
				return math.Inf(-1)
			}
			g += rc[j] * p.lower[j]
		case rc[j] < 0:
			if math.IsInf(p.upper[j], 1) {
				return math.Inf(-1)
			}
			g += rc[j] * p.upper[j]
		}
	}
	return g
}

// Options tunes the simplex solver. The zero value selects defaults.
type Options struct {
	// MaxIters caps total simplex iterations (default 50000 + 20·(m+n)).
	MaxIters int
	// Tol is the feasibility/optimality tolerance (default 1e-7).
	Tol float64
	// RefactorEvery triggers a fresh basis factorization after this many eta
	// updates (default 32).
	RefactorEvery int
	// Dantzig selects the classic textbook pivot rules instead of the
	// defaults — most-negative-reduced-cost pricing in the primal (instead
	// of devex), most-infeasible-row selection and the single-breakpoint
	// ratio test in the dual (instead of dual steepest-edge pricing and the
	// bound-flipping long-step ratio test). Both rule sets reach the same
	// optima; the flag exists for benchmarking and the pivot-rule
	// independence property tests.
	Dantzig bool
	// Cancel, when non-nil, aborts the solve soon after the channel closes
	// (checked before every simplex pivot). A cancelled solve reports
	// StatusIterLimit, the same as exhausting MaxIters: in both cases the
	// solve stopped early without a verdict. Callers that need to
	// distinguish cancellation inspect their context afterwards.
	Cancel <-chan struct{}
	// WarmStart, when non-nil, seeds the solve with a basis exported from a
	// previous solve (Solution.Basis) of this problem or of a structurally
	// identical problem with different bounds or RHS. A primal-feasible
	// start skips phase 1 entirely; a merely dual-feasible one (the usual
	// state after a branching bound change or a budget/RHS change) is
	// reoptimized by the dual simplex in a handful of pivots. An unusable
	// basis falls back to a cold start, so warm starts never change the
	// result, only the pivot count.
	WarmStart *Basis
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50000 + 20*(m+n)
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.RefactorEvery == 0 {
		o.RefactorEvery = 32
	}
	return o
}

// Solver is a reusable simplex engine. It retains every internal allocation
// — the column-compressed matrix, the LU factorization workspace, the eta
// file, pricing weights, and all dense scratch — across Solve calls, so
// solving a stream of equally-shaped problems (branch-and-bound node
// relaxations, budget-sweep points, ε-search LPs) allocates almost nothing
// after the first solve. Problems of a different shape transparently
// reallocate.
//
// A Solver is not safe for concurrent use; give each goroutine its own.
// The branch-and-bound workers in package milp each own one.
type Solver struct {
	s *simplex
}

// NewSolver returns an empty Solver; the first Solve sizes it.
func NewSolver() *Solver { return &Solver{} }

// Solve optimizes p exactly like Problem.Solve, reusing the engine's
// buffers when p has the same shape as the previous problem solved.
func (sv *Solver) Solve(p *Problem, opt Options) *Solution {
	start := time.Now()
	if sv.s == nil || !sv.s.shapeMatches(p) {
		sv.s = newSimplex(p, opt)
	} else {
		sv.s.load(p, opt)
	}
	sol := sv.s.solve()
	sol.Elapsed = time.Since(start)
	return sol
}

// solverPool recycles simplex engines across Problem.Solve calls. Callers
// like the planning service solve the same problem shapes over and over from
// short-lived goroutines; pooling gives them the Solver reuse win without
// threading an explicit engine through every call site.
var solverPool sync.Pool

// Solve optimizes the problem with the given options.
func (p *Problem) Solve(opt Options) *Solution {
	sv, _ := solverPool.Get().(*Solver)
	if sv == nil {
		sv = NewSolver()
	}
	sol := sv.Solve(p, opt)
	solverPool.Put(sv)
	return sol
}

// EvalRow computes aᵢᵀx for row i at point x.
func (p *Problem) EvalRow(i int, x []float64) float64 {
	var v float64
	for k, j := range p.rowIdx[i] {
		v += p.rowVal[i][k] * float64(x[j])
	}
	return v
}

// CheckFeasible verifies x against all rows and bounds within tol,
// returning a descriptive error for the first violation found.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	for j := range p.cost {
		if x[j] < p.lower[j]-tol || x[j] > p.upper[j]+tol {
			return fmt.Errorf("lp: variable %d (%s)=%g outside [%g,%g]", j, p.names[j], x[j], p.lower[j], p.upper[j])
		}
	}
	for i := range p.rowRHS {
		v := p.EvalRow(i, x)
		switch p.rowSense[i] {
		case LE:
			if v > p.rowRHS[i]+tol {
				return fmt.Errorf("lp: row %d: %g > %g", i, v, p.rowRHS[i])
			}
		case GE:
			if v < p.rowRHS[i]-tol {
				return fmt.Errorf("lp: row %d: %g < %g", i, v, p.rowRHS[i])
			}
		case EQ:
			if math.Abs(v-p.rowRHS[i]) > tol {
				return fmt.Errorf("lp: row %d: %g != %g", i, v, p.rowRHS[i])
			}
		}
	}
	return nil
}

// Objective computes cᵀx.
func (p *Problem) Objective(x []float64) float64 {
	var v float64
	for j := range p.cost {
		v += p.cost[j] * x[j]
	}
	return v
}

// DebugCounters exposes internal iteration statistics of the last completed
// solve for performance diagnostics (test-only; subject to change). Atomic
// because solves may run concurrently — e.g. under the planning service's
// worker pool — in which case the values reflect whichever solve finished
// last.
var DebugCounters struct{ Phase1Iters, Degenerate atomic.Int64 }
