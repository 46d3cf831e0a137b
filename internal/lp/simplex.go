package lp

import (
	"math"
	"sort"
)

// Variable statuses for the bounded-variable simplex.
const (
	statBasic int8 = iota
	statAtLower
	statAtUpper
	statFree // nonbasic free variable parked at value 0
)

// simplex is one solve of a Problem: columns are laid out as
// [0,n) structural, [n,n+m) slack (+1 coefficient in own row),
// [n+m,n+2m) artificial (±1 coefficient in own row, sign fixed in phase 1).
type simplex struct {
	p   *Problem
	opt Options

	n, m  int // structural vars, rows
	total int // n + 2m columns

	// Column-compressed structural matrix.
	colPtr []int32
	colRow []int32
	colVal []float64

	artSign []float64 // ±1 per row, set when phase 1 begins

	lower, upper []float64 // per column, incl. slacks/artificials
	cost         []float64 // phase-2 costs per column
	pcost        []float64 // active costs (phase 1 or 2)

	stat  []int8
	basis []int32 // position -> column
	xB    []float64

	f *factor

	// Scratch.
	bufW []float64 // FTRAN result
	bufY []float64 // BTRAN result
	bufA []float64 // dense rhs accumulation
	bufR []float64 // BTRAN of the pivot unit vector (devex / DSE row)
	bufT []float64 // FTRAN of the pivot row (DSE weight update)
	pbuf []float64 // perturbed phase-2 costs

	// Devex reference weights (one per column); reset to 1 when the
	// reference framework is rebuilt.
	devex []float64
	// Dual steepest-edge reference weights, one per basis position
	// (approximating ‖B⁻ᵀeᵢ‖²); maintained across dual pivots by the
	// Forrest–Goldfarb update and reset to 1 on refactorization.
	dse []float64

	// Candidate scratch for the dual ratio test.
	cands []dualCand

	// Dual simplex state, over the structural and slack columns: reduced
	// costs of the exact phase-2 costs, updated per pivot and recomputed at
	// every refactorization; and the pivot row α = ρᵀA, computed row-wise
	// from ρ's nonzeros (rowCols lists the columns it touched, inRow marks
	// them; both are cleared after each pivot).
	d       []float64
	alpha   []float64
	inRow   []bool
	rowCols []int32

	ident []int32 // ident[i] = i: the one-entry row list of slack and artificial columns

	fillBuf []int32   // CSC build scratch (one cursor per structural column)
	seenBuf []bool    // installBasis validation scratch
	p1buf   []float64 // phase-1 cost vector scratch

	iters          int
	p1iters        int
	dualIters      int // dual pivots reoptimizing a warm-start basis
	dualStartIters int // dual pivots from the cold slack basis
	flips          int // bound flips performed by the long-step dual ratio test
	dseUpdates     int // DSE reference-weight updates applied
	degens         int
	phase          int
	blandLeft      int // if > 0, use Bland's rule for this many iterations
	degenRun       int
	warm           bool // a warm-start basis was accepted and used

	duals []float64 // y at phase-2 optimality, original-row indexed
}

// dualCand is one eligible entering candidate of the dual ratio test.
type dualCand struct {
	j     int32
	alpha float64 // pivot-row coefficient aⱼᵀρ
	ratio float64 // dual breakpoint |dⱼ|/|αⱼ|
}

func newSimplex(p *Problem, opt Options) *simplex {
	n, m := p.NumVars(), p.NumRows()
	s := &simplex{n: n, m: m, total: n + 2*m}
	s.colPtr = make([]int32, n+1)
	s.lower = make([]float64, s.total)
	s.upper = make([]float64, s.total)
	s.cost = make([]float64, s.total)
	s.artSign = make([]float64, m)
	s.stat = make([]int8, s.total)
	s.basis = make([]int32, m)
	s.xB = make([]float64, m)
	s.f = newFactor(m)
	s.bufW = make([]float64, m)
	s.bufY = make([]float64, m)
	s.bufA = make([]float64, m)
	s.bufR = make([]float64, m)
	s.bufT = make([]float64, m)
	s.devex = make([]float64, s.total)
	s.dse = make([]float64, m)
	s.d = make([]float64, n+m)
	s.alpha = make([]float64, n+m)
	s.inRow = make([]bool, n+m)
	s.ident = make([]int32, m)
	for i := range s.ident {
		s.ident[i] = int32(i)
	}
	s.load(p, opt)
	return s
}

// shapeMatches reports whether p can be loaded into this engine's buffers
// without reallocation: same variable and row counts. The sparsity pattern
// may differ — load rebuilds the CSC arrays (growing them if the nonzero
// count increased).
func (s *simplex) shapeMatches(p *Problem) bool {
	return s.n == p.NumVars() && s.m == p.NumRows()
}

// load (re)initializes all per-solve state from p, reusing every buffer the
// engine already owns. newSimplex calls it once; Solver calls it on reuse.
func (s *simplex) load(p *Problem, opt Options) {
	n, m := s.n, s.m
	s.p, s.opt = p, opt.withDefaults(m, n)

	// Build CSC of the structural columns from the row-wise problem data.
	counts := s.colPtr
	for j := range counts {
		counts[j] = 0
	}
	for i := range p.rowIdx {
		for _, j := range p.rowIdx[i] {
			counts[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	nnz := int(counts[n])
	if cap(s.colRow) < nnz {
		s.colRow = make([]int32, nnz)
		s.colVal = make([]float64, nnz)
	}
	s.colRow = s.colRow[:nnz]
	s.colVal = s.colVal[:nnz]
	if cap(s.fillBuf) < n {
		s.fillBuf = make([]int32, n)
	}
	fillBuf := s.fillBuf[:n]
	for j := range fillBuf {
		fillBuf[j] = 0
	}
	for i := range p.rowIdx {
		for k, j := range p.rowIdx[i] {
			at := s.colPtr[j] + fillBuf[j]
			s.colRow[at] = int32(i)
			s.colVal[at] = p.rowVal[i][k]
			fillBuf[j]++
		}
	}

	copy(s.lower, p.lower)
	copy(s.upper, p.upper)
	copy(s.cost, p.cost)
	for j := n; j < s.total; j++ {
		s.cost[j] = 0
	}
	for i := 0; i < m; i++ {
		sl := n + i
		switch p.rowSense[i] {
		case LE:
			s.lower[sl], s.upper[sl] = 0, Inf
		case GE:
			s.lower[sl], s.upper[sl] = math.Inf(-1), 0
		case EQ:
			s.lower[sl], s.upper[sl] = 0, 0
		}
		// Artificials start disabled (fixed at 0); phase 1 opens them.
		a := n + m + i
		s.lower[a], s.upper[a] = 0, 0
		s.artSign[i] = 0
	}
	for j := range s.stat {
		s.stat[j] = statAtLower
	}
	s.pcost = nil
	s.iters, s.p1iters, s.dualIters, s.dualStartIters = 0, 0, 0, 0
	s.flips, s.dseUpdates, s.degens = 0, 0, 0
	s.phase, s.blandLeft, s.degenRun = 0, 0, 0
	s.warm = false
	s.duals = s.duals[:0]
	s.f.reset()
}

// resetDevex rebuilds the devex reference framework.
// fixed reports whether column j is a fixed variable (equal stored bounds).
// Bounds are *assigned*, never computed, so exact equality is the intended
// test — a tolerance here would wrongly freeze near-degenerate columns.
//
//lint:floateq comparing assigned (not computed) bounds; exact equality defines "fixed"
func (s *simplex) fixed(j int) bool { return s.lower[j] == s.upper[j] }

func (s *simplex) resetDevex() {
	for j := range s.devex {
		s.devex[j] = 1
	}
}

// resetDSE rebuilds the dual steepest-edge reference framework with unit
// weights (the slack-basis exact values, and the cheap restart after a
// refactorization).
func (s *simplex) resetDSE() {
	for i := range s.dse {
		s.dse[i] = 1
	}
}

// perturbedCosts returns the phase-2 cost vector with a tiny deterministic
// pseudo-random perturbation per column (xorshift hash of the index), which
// breaks ties among the many identical reduced costs these scheduling LPs
// produce and sharply reduces degenerate pivoting.
func (s *simplex) perturbedCosts() []float64 {
	if cap(s.pbuf) < s.total {
		s.pbuf = make([]float64, s.total)
	}
	out := s.pbuf[:s.total]
	copy(out, s.cost)
	const eps = 1e-7
	for j := range out {
		h := uint64(j)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		u := float64(h>>11) / float64(1<<53) // in [0,1)
		out[j] += eps * u * (1 + math.Abs(out[j]))
	}
	return out
}

// scatterCol adds column j into dense w (original-row indexed) and returns
// the nonzero row list, a read-only view of engine-owned storage.
func (s *simplex) scatterCol(j int, w []float64) []int32 {
	switch {
	case j < s.n:
		lo, hi := s.colPtr[j], s.colPtr[j+1]
		for k := lo; k < hi; k++ {
			w[s.colRow[k]] += s.colVal[k]
		}
		return s.colRow[lo:hi]
	case j < s.n+s.m:
		r := j - s.n
		w[r] += 1
		return s.ident[r : r+1]
	default:
		r := j - s.n - s.m
		w[r] += s.artSign[r]
		return s.ident[r : r+1]
	}
}

// colDot computes aⱼᵀy for original-row indexed y.
func (s *simplex) colDot(j int, y []float64) float64 {
	switch {
	case j < s.n:
		var v float64
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v += s.colVal[k] * y[s.colRow[k]]
		}
		return v
	case j < s.n+s.m:
		return y[j-s.n]
	default:
		r := j - s.n - s.m
		return s.artSign[r] * y[r]
	}
}

// nonbasicValue returns the current value of nonbasic column j.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.stat[j] {
	case statAtLower:
		return s.lower[j]
	case statAtUpper:
		return s.upper[j]
	default:
		return 0 // free
	}
}

// initialPoint parks structural variables at the finite bound nearest zero
// (or 0 for free variables), installs the slack basis, and computes xB.
func (s *simplex) initialPoint() {
	for j := 0; j < s.n; j++ {
		lo, hi := s.lower[j], s.upper[j]
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			s.stat[j] = statFree
		case math.IsInf(lo, -1):
			s.stat[j] = statAtUpper
		case math.IsInf(hi, 1):
			s.stat[j] = statAtLower
		case s.p.startUpper[j]:
			s.stat[j] = statAtUpper
		case math.Abs(lo) <= math.Abs(hi):
			s.stat[j] = statAtLower
		default:
			s.stat[j] = statAtUpper
		}
	}
	for i := 0; i < s.m; i++ {
		s.basis[i] = int32(s.n + i) // slack basis
		s.stat[s.n+i] = statBasic
		s.stat[s.n+s.m+i] = statAtLower // artificials parked at 0
	}
	s.refactorAndRecompute()
}

// refactorAndRecompute refreshes the LU factorization and recomputes basic
// variable values from scratch (fighting numerical drift).
func (s *simplex) refactorAndRecompute() bool {
	err := s.f.refactorize(func(k int, w []float64) []int32 {
		return s.scatterCol(int(s.basis[k]), w)
	})
	if err != nil {
		return false
	}
	// rhs = b - Σ_nonbasic aⱼ xⱼ
	rhs := s.bufA
	for i := range rhs {
		rhs[i] = 0
	}
	for i := 0; i < s.m; i++ {
		rhs[i] = s.p.rowRHS[i]
	}
	for j := 0; j < s.total; j++ {
		if s.stat[j] == statBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		switch {
		case j < s.n:
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				rhs[s.colRow[k]] -= s.colVal[k] * v
			}
		case j < s.n+s.m:
			rhs[j-s.n] -= v
		default:
			r := j - s.n - s.m
			rhs[r] -= s.artSign[r] * v
		}
	}
	s.f.ftran(rhs)
	copy(s.xB, rhs[:s.m])
	return true
}

// infeasibility returns the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	var v float64
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if d := s.lower[j] - s.xB[i]; d > 0 {
			v += d
		}
		if d := s.xB[i] - s.upper[j]; d > 0 {
			v += d
		}
	}
	return v
}

// solve optimizes the problem. Every start that is primal-infeasible but
// dual-feasible runs the dual simplex first: a warm-start basis after a bound
// or RHS change, and the cold slack basis whenever each structural sits at a
// bound its cost favours — every Checkmate LP, whose costs are all ≥ 0 at
// lower bounds. A warm basis that is already primal-feasible skips phase 1.
// Any dual breakdown (a stall, a numerical failure, or a dual ray whose
// certificate does not check out) falls back to the cold two-phase primal
// method, so the dual path never changes a result, only the pivot count.
func (s *simplex) solve() *Solution {
	tol := s.opt.Tol
	if s.opt.WarmStart != nil && s.installBasis(s.opt.WarmStart) {
		s.warm = true
		if _, final := s.dualStart(tol*10, &s.dualIters); final != nil {
			return final
		}
		// Phase 1 (setupPhase1) installs artificials assuming the slack basis,
		// so it must never run on a warm basis: one that is still primal
		// infeasible restarts cold.
		s.warm = s.infeasibility() <= tol
	}
	dualStarted := false
	if !s.warm {
		s.initialPoint()
		done, final := s.dualStart(tol, &s.dualStartIters)
		if final != nil {
			return final
		}
		if !done && s.dualStartIters > 0 {
			s.initialPoint() // the failed dual start moved the basis
		}
		dualStarted = done
	}
	return s.primal(dualStarted)
}

// primal finishes a solve with the primal simplex from the installed basis:
// phase 1 if the basis is primal-infeasible (which requires the slack
// basis), then phase 2, skipping the perturbed pass when skipPerturb is set
// (the basis came out of the dual simplex) or the solve runs warm.
func (s *simplex) primal(skipPerturb bool) *Solution {
	tol := s.opt.Tol
	if s.infeasibility() > tol {
		// Phase 1: open artificial variables to absorb the residual of every
		// infeasible row, producing a feasible start for min Σ artificials.
		if !s.setupPhase1() {
			return s.finishSolution(&Solution{Status: StatusInfeasible})
		}
		s.phase = 1
		if cap(s.p1buf) < s.total {
			s.p1buf = make([]float64, s.total)
		}
		s.pcost = s.p1buf[:s.total]
		for j := range s.pcost {
			s.pcost[j] = 0
		}
		for i := 0; i < s.m; i++ {
			s.pcost[s.n+s.m+i] = 1
		}
		p1start := s.iters
		st := s.iterate()
		s.p1iters = s.iters - p1start
		if st != StatusOptimal {
			if st == StatusUnbounded {
				// Phase-1 objective is bounded below by 0; an unbounded ray
				// indicates numerical breakdown. Report iteration limit.
				return s.finishSolution(&Solution{Status: StatusIterLimit})
			}
			return s.finishSolution(&Solution{Status: st})
		}
		if s.phase1Obj() > 1e-6 {
			return s.finishSolution(&Solution{Status: StatusInfeasible})
		}
		// Seal artificials at zero for phase 2.
		for i := 0; i < s.m; i++ {
			a := s.n + s.m + i
			s.lower[a], s.upper[a] = 0, 0
			if s.stat[a] != statBasic {
				s.stat[a] = statAtLower
			}
		}
	}

	// A primal phase 2 from a phase-1 or slack-basis vertex runs first with
	// deterministically perturbed costs to break the massive dual degeneracy
	// of scheduling LPs (many identical cost coefficients), then re-optimizes
	// with the exact costs — typically a handful of extra pivots. A basis the
	// dual simplex produced skips the perturbation pass: it is already optimal
	// for the exact costs up to tolerance, and perturbing would walk away from
	// it. The exact-cost pass then confirms optimality and records the duals.
	s.phase = 2
	if !s.warm && !skipPerturb {
		s.pcost = s.perturbedCosts()
		if st := s.iterate(); st != StatusOptimal {
			if st == StatusUnbounded {
				// Unboundedness under perturbation implies unboundedness of a
				// cost vector arbitrarily close to the original; verify with
				// the exact costs below.
				s.pcost = s.cost
				if st2 := s.iterate(); st2 != StatusOptimal {
					return s.finishSolution(&Solution{Status: st2})
				}
			} else {
				return s.finishSolution(&Solution{Status: st})
			}
		}
	}
	s.pcost = s.cost
	st := s.iterate()
	DebugCounters.Phase1Iters.Store(int64(s.p1iters))
	DebugCounters.Degenerate.Store(int64(s.degens))
	sol := &Solution{Status: st}
	if st == StatusOptimal || st == StatusIterLimit {
		x := make([]float64, s.n)
		for j := 0; j < s.n; j++ {
			if s.stat[j] != statBasic {
				x[j] = s.nonbasicValue(j)
			}
		}
		for i := 0; i < s.m; i++ {
			if j := int(s.basis[i]); j < s.n {
				x[j] = s.xB[i]
			}
		}
		sol.X = x
		sol.Obj = s.p.Objective(x)
		sol.Duals = append([]float64(nil), s.duals...)
	}
	if st == StatusOptimal {
		sol.Basis = s.exportBasis()
	}
	return s.finishSolution(sol)
}

// dualStart runs the dual simplex from the installed basis when that basis
// is primal-infeasible but dual-feasible within dtol, adding its pivots to
// *count. done reports that it reached a basis within tol of primal
// feasibility. final is non-nil when the solve ends here: a verified dual
// ray proved the problem infeasible, or the iteration limit or cancellation
// cut it. Otherwise — not applicable, stalled, or numerically stuck — the
// caller continues with the primal method.
func (s *simplex) dualStart(dtol float64, count *int) (done bool, final *Solution) {
	tol := s.opt.Tol
	if s.infeasibility() <= tol || !s.dualFeasible(dtol) {
		return false, nil
	}
	before := s.iters
	st := s.dualIterate()
	*count += s.iters - before
	switch {
	case st == StatusOptimal:
		// The dual stops once each basic variable is within tol of its
		// bounds; the summed residual must also clear the phase-1 trigger.
		return s.infeasibility() <= tol, nil
	case st == StatusInfeasible:
		return false, s.finishSolution(&Solution{Status: StatusInfeasible})
	case s.iters >= s.opt.MaxIters || s.cancelled():
		return false, s.finishSolution(&Solution{Status: StatusIterLimit})
	}
	return false, nil
}

// finishSolution stamps the iteration accounting shared by every solve exit.
func (s *simplex) finishSolution(sol *Solution) *Solution {
	sol.Iters = s.iters
	sol.Phase1Iters = s.p1iters
	sol.DualIters = s.dualIters
	sol.DualStartIters = s.dualStartIters
	sol.BoundFlips = s.flips
	sol.PricingUpdates = s.dseUpdates
	sol.Warm = s.warm
	return sol
}

// cancelled reports whether the solve's cancel channel has closed.
func (s *simplex) cancelled() bool {
	if s.opt.Cancel == nil {
		return false
	}
	select {
	case <-s.opt.Cancel:
		return true
	default:
		return false
	}
}

// computeReducedCosts sets s.d to the reduced costs cⱼ − aⱼᵀy of the exact
// phase-2 costs at the current basis, y = B⁻ᵀc_B (0 on basic columns).
// Artificial columns are skipped: they are fixed at zero whenever the dual
// simplex runs.
func (s *simplex) computeReducedCosts() {
	y := s.bufY
	for i := 0; i < s.m; i++ {
		y[i] = s.cost[s.basis[i]]
	}
	s.f.btran(y)
	for j := 0; j < s.n+s.m; j++ {
		if s.stat[j] == statBasic {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.cost[j] - s.colDot(j, y)
	}
}

// dualFeasible reports whether the current basis is dual-feasible for the
// exact phase-2 costs: every nonbasic reduced cost has the sign its status
// requires (≥ 0 at lower bound, ≤ 0 at upper, ≈ 0 free). It leaves the
// reduced costs in s.d, where dualIterate starts from them.
func (s *simplex) dualFeasible(tol float64) bool {
	s.computeReducedCosts()
	for j := 0; j < s.n+s.m; j++ {
		if s.stat[j] == statBasic || s.fixed(j) {
			continue
		}
		d := s.d[j]
		switch s.stat[j] {
		case statAtLower:
			if d < -tol {
				return false
			}
		case statAtUpper:
			if d > tol {
				return false
			}
		case statFree:
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// pivotRow computes αⱼ = aⱼᵀρ into s.alpha for every structural and slack
// column, walking only the rows of A where ρ is nonzero, and returns the
// columns it touched (every other αⱼ is 0). Artificial columns are left out:
// they are fixed at zero whenever the dual simplex runs. clearPivotRow
// resets the scratch for the next pivot.
func (s *simplex) pivotRow(rho []float64) []int32 {
	cols := s.rowCols[:0]
	for i, r := range rho[:s.m] {
		if r == 0 {
			continue
		}
		vals := s.p.rowVal[i]
		for k, j := range s.p.rowIdx[i] {
			if !s.inRow[j] {
				s.inRow[j] = true
				cols = append(cols, j)
			}
			s.alpha[j] += r * vals[k]
		}
		sl := int32(s.n + i)
		s.inRow[sl] = true
		s.alpha[sl] = r
		cols = append(cols, sl)
	}
	s.rowCols = cols
	return cols
}

// clearPivotRow zeroes the pivot-row scratch pivotRow filled.
func (s *simplex) clearPivotRow(cols []int32) {
	for _, j := range cols {
		s.alpha[j] = 0
		s.inRow[j] = false
	}
}

// farkasInfeasible reports whether the row combination ρ proves the
// constraints empty: ρᵀb lies outside the range that ρᵀ(Ax + s) = Σⱼ αⱼxⱼ
// takes over the column bounds (s.alpha holds the αⱼ of the columns in
// cols; every other αⱼ is 0). Any ρ is a valid certificate however it was
// computed, so the verdict does not rest on the dual simplex's tolerances.
// The margin is the primal's own: a gap above 1e-6·‖ρ‖∞ forces phase 1 to
// end with Σ artificials > 1e-6, so a certified problem is one the
// two-phase primal also reports infeasible.
func (s *simplex) farkasInfeasible(rho []float64, cols []int32) bool {
	var b, rmax, scale float64
	for i, r := range rho[:s.m] {
		b += r * s.p.rowRHS[i]
		rmax = math.Max(rmax, math.Abs(r))
	}
	lo, hi := 0.0, 0.0 // range of Σⱼ αⱼxⱼ over the bounds
	for _, j := range cols {
		a := s.alpha[j]
		if a == 0 {
			continue
		}
		tl, tu := a*s.lower[j], a*s.upper[j]
		if a < 0 {
			tl, tu = tu, tl
		}
		lo += tl
		hi += tu
		if !math.IsInf(tl, 0) {
			scale += math.Abs(tl)
		}
		if !math.IsInf(tu, 0) {
			scale += math.Abs(tu)
		}
	}
	margin := 1e-6*rmax + 1e-9*(scale+math.Abs(b))
	return b > hi+margin || b < lo-margin
}

// dualIterate runs the bounded-variable dual simplex with the exact costs:
// starting from a dual-feasible basis whose reduced costs are in s.d
// (dualFeasible computes them) it drives out primal infeasibilities one
// leaving row at a time, preserving dual feasibility via the dual ratio
// test. Returns StatusOptimal once all basic variables are within bounds
// (primal + dual feasible = optimal up to a final primal confirmation pass),
// StatusInfeasible when a dual ray's certificate proves the primal empty
// (farkasInfeasible), or StatusIterLimit on iteration exhaustion,
// cancellation, a stall, or a ray that does not check out — the caller
// treats the last two as "fall back to the primal method".
//
// Each pivot costs only the nonzeros it touches: the pivot row comes from
// the rows of A where ρ = B⁻ᵀe_r is nonzero (pivotRow), and the reduced
// costs are updated in place (dⱼ ← dⱼ − θ_D·αⱼ) rather than re-priced from
// a fresh BTRAN of c_B; they are recomputed exactly at each
// refactorization.
//
// Two refinements over the textbook method, both off under Options.Dantzig:
//
//   - Leaving-row pricing uses dual steepest-edge (Forrest–Goldfarb):
//     maximize infeasᵢ²/βᵢ where βᵢ approximates ‖B⁻ᵀeᵢ‖². Weights are
//     maintained across pivots by the exact FG update (one extra FTRAN per
//     pivot) and reset to 1 on refactorization.
//   - The ratio test is the long-step bound-flipping test: breakpoints are
//     crossed in ratio order, flipping each passed boxed variable to its
//     opposite bound (dual feasibility is restored by the flip), until the
//     remaining infeasibility would be exhausted. One pivot thus does the
//     work of many on the 0/1-box Checkmate LPs where nearly every column
//     is boxed.
func (s *simplex) dualIterate() Status {
	tol := s.opt.Tol
	const pivTol = 1e-9
	classic := s.opt.Dantzig
	if !classic {
		s.resetDSE()
	}
	// Stall guard: dual-degenerate pivots (entering reduced cost ~0) make no
	// dual-objective progress; long runs risk cycling, and a cold solve is
	// always available, so bail out after a bounded run.
	stall := 0
	maxStall := 200 + (s.m+s.n)/4
	for {
		if s.iters >= s.opt.MaxIters || s.cancelled() {
			return StatusIterLimit
		}
		if s.f.numEtas >= s.opt.RefactorEvery {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
			if !classic {
				s.resetDSE()
			}
			s.computeReducedCosts()
		}

		// Leaving row: the most primally infeasible basic variable, measured
		// through the steepest-edge reference weights unless classic rules
		// were requested.
		leave, best := -1, 0.0
		var leaveAt int8
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			var viol float64
			var at int8
			if d := s.lower[j] - s.xB[i]; d > tol {
				viol, at = d, statAtLower
			} else if d := s.xB[i] - s.upper[j]; d > tol {
				viol, at = d, statAtUpper
			} else {
				continue
			}
			score := viol
			if !classic {
				score = viol * viol / s.dse[i]
			}
			if score > best {
				leave, best, leaveAt = i, score, at
			}
		}
		if leave < 0 {
			return StatusOptimal // primal feasible
		}
		s.iters++

		// Pivot row: ρ = B⁻ᵀ e_leave, α_j = aⱼᵀρ.
		rho := s.bufR
		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		s.f.btran(rho)
		cols := s.pivotRow(rho)

		// Basic variable leaves at the violated bound. Moving it toward that
		// bound requires the entering nonbasic to move in a direction that
		// fixes the violation: xB[leave] changes at rate −α_j per unit of
		// x_j's move, so eligibility depends on the sign of α_j and on which
		// directions the entering variable's status allows. Collect every
		// eligible candidate with its dual breakpoint.
		needInc := leaveAt == statAtLower // basic below lower: must increase
		cands := s.cands[:0]
		for _, cj := range cols {
			j := int(cj)
			st := s.stat[j]
			if st == statBasic || s.fixed(j) {
				continue
			}
			alpha := s.alpha[j]
			if math.Abs(alpha) < pivTol {
				continue
			}
			switch st {
			case statAtLower:
				if needInc == (alpha > 0) {
					continue
				}
			case statAtUpper:
				if needInc == (alpha < 0) {
					continue
				}
			case statFree:
				// Either direction available; always eligible, and with a
				// near-zero reduced cost a free variable wins the ratio test.
			}
			cands = append(cands, dualCand{j: cj, alpha: alpha, ratio: math.Abs(s.d[j]) / math.Abs(alpha)})
		}
		s.cands = cands
		if len(cands) == 0 {
			// No entering candidate: the dual is unbounded along this row.
			// Candidates with tiny |αⱼ| were skipped, so the ray proves the
			// primal empty only if its exact range check agrees; otherwise
			// report a breakdown and let the primal decide.
			infeasible := s.farkasInfeasible(rho, cols)
			s.clearPivotRow(cols)
			if infeasible {
				return StatusInfeasible
			}
			return StatusIterLimit
		}

		// Signed violation of the leaving basic variable.
		jb := s.basis[leave]
		var e float64
		if leaveAt == statAtLower {
			e = s.xB[leave] - s.lower[jb]
		} else {
			e = s.xB[leave] - s.upper[jb]
		}

		q := -1
		var qAlpha, qRatio float64
		if classic {
			// Single-breakpoint test: smallest ratio, larger |α| on near ties.
			bestRatio, bestAbs := math.Inf(1), 0.0
			for _, c := range cands {
				if c.ratio < bestRatio-1e-10 || (c.ratio < bestRatio+1e-10 && math.Abs(c.alpha) > bestAbs) {
					q, qAlpha, bestRatio, bestAbs = int(c.j), c.alpha, c.ratio, math.Abs(c.alpha)
				}
			}
			qRatio = bestRatio
		} else {
			var flipped bool
			q, qAlpha, qRatio, flipped = s.boundFlipRatioTest(cands, leave, math.Abs(e))
			if flipped {
				// Recompute the violation: the flips moved every basic value,
				// including the leaving row's.
				if leaveAt == statAtLower {
					e = s.xB[leave] - s.lower[jb]
				} else {
					e = s.xB[leave] - s.upper[jb]
				}
				// The flips alone can (numerically) restore this row to its
				// bounds; the basis is unchanged, so simply re-price.
				if math.Abs(e) <= tol {
					s.clearPivotRow(cols)
					continue
				}
			}
		}
		if qRatio <= 1e-12 {
			stall++
			if stall > maxStall {
				s.clearPivotRow(cols)
				return StatusIterLimit
			}
		} else {
			stall = 0
		}

		// Dual step: every nonbasic reduced cost moves along the pivot row,
		// dⱼ ← dⱼ − θ_D·αⱼ with θ_D = d_q/α_q; the entering column's drops
		// to 0 and the leaving column (α = 1) takes −θ_D.
		thetaD := s.d[q] / qAlpha
		for _, j := range cols {
			if s.stat[j] != statBasic {
				s.d[j] -= thetaD * s.alpha[j]
			}
		}
		s.clearPivotRow(cols)
		s.d[q] = 0
		s.d[jb] = -thetaD

		// Step: the entering variable moves until xB[leave] reaches its bound.
		// The sign of delta matches the allowed direction by the eligibility
		// test above.
		delta := e / qAlpha

		// FTRAN the entering column to update the basic values.
		w := s.bufW
		for i := range w {
			w[i] = 0
		}
		s.scatterCol(q, w)
		s.f.ftran(w)

		// Forrest–Goldfarb weight update, before the eta is pushed (the τ
		// FTRAN must use the pre-pivot basis): β_r ← β_r/α_r²,
		// β_i ← max(β_i − 2(w_i/α_r)τ_i + (w_i/α_r)²β_r, floor) with
		// τ = B⁻¹ρ.
		if !classic {
			tau := s.bufT
			copy(tau, rho)
			s.f.ftran(tau)
			ar := w[leave]
			if math.Abs(ar) > pivTol {
				br := s.dse[leave]
				if br < 1e-10 {
					br = 1e-10
				}
				for i := 0; i < s.m; i++ {
					if i == leave || w[i] == 0 {
						continue
					}
					k := w[i] / ar
					cand := s.dse[i] - 2*k*tau[i] + k*k*br
					if low := 1e-4 * k * k * br; cand < low {
						cand = low
					}
					if cand < 1e-10 {
						cand = 1e-10
					}
					s.dse[i] = cand
					s.dseUpdates++
				}
				nr := br / (ar * ar)
				if nr < 1e-10 {
					nr = 1e-10
				}
				s.dse[leave] = nr
				s.dseUpdates++
			}
		}

		enterVal := s.nonbasicValue(q) + delta
		for i := 0; i < s.m; i++ {
			if w[i] != 0 {
				s.xB[i] -= w[i] * delta
			}
		}
		s.stat[jb] = leaveAt
		s.basis[leave] = int32(q)
		s.stat[q] = statBasic
		s.xB[leave] = enterVal
		if !s.f.pushEta(leave, w) {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
			s.computeReducedCosts()
		}
	}
}

// boundFlipRatioTest is the long-step dual ratio test. Candidates are walked
// in breakpoint order; each passed boxed candidate is flipped to its
// opposite bound (consuming |α|·(u−l) of the remaining infeasibility), and
// the candidate at which the infeasibility would be exhausted — or that has
// no opposite bound to flip to — enters the basis. Flips are applied to the
// basic values immediately (one batched FTRAN); the caller re-reads xB.
// Returns the entering column, its α, its breakpoint ratio, and whether any
// flips were applied.
func (s *simplex) boundFlipRatioTest(cands []dualCand, leave int, remaining float64) (q int, qAlpha, qRatio float64, flipped bool) {
	sort.Sort(byRatio(cands))
	stop := len(cands) - 1
	for k := 0; k < len(cands); k++ {
		c := cands[k]
		j := int(c.j)
		rng := s.upper[j] - s.lower[j] // +Inf for unboxed and free columns
		gain := math.Abs(c.alpha) * rng
		if math.IsInf(gain, 1) || remaining-gain <= 1e-9 {
			stop = k
			break
		}
		remaining -= gain
	}
	// The entering column is the best-pivot candidate among those sharing
	// the stopping breakpoint.
	choose := stop
	for k := stop + 1; k < len(cands); k++ {
		if cands[k].ratio > cands[stop].ratio+1e-10 {
			break
		}
		if math.Abs(cands[k].alpha) > math.Abs(cands[choose].alpha) {
			choose = k
		}
	}
	// Flip only the candidates whose breakpoints the dual step strictly
	// passes. Candidates tied with the entering ratio are dual-degenerate
	// at the new prices: flipping them buys no dual progress but perturbs
	// every basic value, which on these massively degenerate scheduling LPs
	// (most reduced costs identical) causes far more pivots than it saves.
	theta := cands[choose].ratio
	nflip := 0
	for k := 0; k < stop && cands[k].ratio < theta-1e-10; k++ {
		nflip++
	}
	if nflip > 0 {
		acc := s.bufA
		for i := range acc {
			acc[i] = 0
		}
		for k := 0; k < nflip; k++ {
			c := cands[k]
			j := int(c.j)
			var dv float64
			if s.stat[j] == statAtLower {
				dv = s.upper[j] - s.lower[j]
				s.stat[j] = statAtUpper
			} else {
				dv = s.lower[j] - s.upper[j]
				s.stat[j] = statAtLower
			}
			s.addColScaled(j, dv, acc)
		}
		s.f.ftran(acc)
		for i := 0; i < s.m; i++ {
			if acc[i] != 0 {
				s.xB[i] -= acc[i]
			}
		}
		s.flips += nflip
		flipped = true
	}
	c := cands[choose]
	return int(c.j), c.alpha, c.ratio, flipped
}

// byRatio sorts dual ratio-test candidates by breakpoint, column index as a
// deterministic tie-break.
type byRatio []dualCand

func (b byRatio) Len() int      { return len(b) }
func (b byRatio) Swap(i, j int) { b[i], b[j] = b[j], b[i] }
func (b byRatio) Less(i, j int) bool {
	//lint:floateq exact tie-break: equal ratios fall through to the deterministic column-index key
	if b[i].ratio != b[j].ratio {
		return b[i].ratio < b[j].ratio
	}
	return b[i].j < b[j].j
}

// addColScaled accumulates v·aⱼ into dense w (original-row indexed).
func (s *simplex) addColScaled(j int, v float64, w []float64) {
	switch {
	case j < s.n:
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			w[s.colRow[k]] += s.colVal[k] * v
		}
	case j < s.n+s.m:
		w[j-s.n] += v
	default:
		r := j - s.n - s.m
		w[r] += s.artSign[r] * v
	}
}

// setupPhase1 installs one artificial per infeasible row so the slack basis
// becomes feasible for the phase-1 problem. Rows already feasible keep their
// artificial fixed at 0.
func (s *simplex) setupPhase1() bool {
	// The basis is currently all slacks, so xB[i] is the slack value of the
	// row at position rowPos... with slack basis pivoting is 1:1; recompute
	// per row residual directly for clarity.
	resid := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		resid[i] = s.p.rowRHS[i]
	}
	for j := 0; j < s.n; j++ {
		v := s.nonbasicValue(j)
		if s.stat[j] == statBasic || v == 0 {
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			resid[s.colRow[k]] -= s.colVal[k] * v
		}
	}
	for i := 0; i < s.m; i++ {
		sl := s.n + i
		a := s.n + s.m + i
		// Clamp the slack into its bounds; the artificial absorbs the rest.
		v := resid[i]
		clamped := math.Min(math.Max(v, s.lower[sl]), s.upper[sl])
		excess := v - clamped
		if math.Abs(excess) <= s.opt.Tol {
			// Row feasible with slack basic.
			continue
		}
		s.artSign[i] = 1
		if excess < 0 {
			s.artSign[i] = -1
		}
		s.lower[a], s.upper[a] = 0, Inf
		// Artificial enters the basis; slack becomes nonbasic at the bound it
		// was clamped to.
		s.basis[i] = int32(a)
		s.stat[a] = statBasic
		//lint:floateq clamped was assigned one of the two bounds; exact match identifies which
		if clamped == s.lower[sl] {
			s.stat[sl] = statAtLower
		} else {
			s.stat[sl] = statAtUpper
		}
	}
	return s.refactorAndRecompute()
}

func (s *simplex) phase1Obj() float64 {
	var v float64
	for i := 0; i < s.m; i++ {
		if j := int(s.basis[i]); j >= s.n+s.m {
			v += s.xB[i]
		}
	}
	// Nonbasic artificials sit at 0.
	return v
}

// iterate runs primal simplex iterations until optimality for the active
// cost vector. Pricing uses the devex rule (reduced cost squared over a
// reference weight), which substantially reduces degenerate pivoting on the
// rematerialization LPs compared to Dantzig's rule; Bland's rule takes over
// on long degenerate runs to guarantee termination.
func (s *simplex) iterate() Status {
	tol := s.opt.Tol
	s.resetDevex()
	for {
		if s.iters >= s.opt.MaxIters || s.cancelled() {
			return StatusIterLimit
		}
		s.iters++
		if s.f.numEtas >= s.opt.RefactorEvery {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
		}

		// BTRAN: y = (c_B)ᵀ B⁻¹.
		y := s.bufY
		for i := range y {
			y[i] = 0
		}
		for i := 0; i < s.m; i++ {
			y[i] = s.pcost[s.basis[i]]
		}
		s.f.btran(y)

		// Pricing: devex — maximize d² / γ among eligible columns.
		q, dir, bestScore := -1, 0.0, 0.0
		bland := s.blandLeft > 0
		for j := 0; j < s.total; j++ {
			st := s.stat[j]
			if st == statBasic || s.fixed(j) {
				continue
			}
			d := s.pcost[j] - s.colDot(j, y)
			var cdir float64
			switch st {
			case statAtLower:
				if d < -tol {
					cdir = 1
				}
			case statAtUpper:
				if d > tol {
					cdir = -1
				}
			case statFree:
				if d < -tol {
					cdir = 1
				} else if d > tol {
					cdir = -1
				}
			}
			if cdir == 0 {
				continue
			}
			if bland {
				q, dir = j, cdir
				break
			}
			cand := d * d / s.devex[j]
			if s.opt.Dantzig {
				cand = d * d
			}
			if cand > bestScore {
				q, dir, bestScore = j, cdir, cand
			}
		}
		if q < 0 {
			if s.phase == 2 {
				s.duals = append(s.duals[:0], y[:s.m]...)
			}
			return StatusOptimal
		}

		// FTRAN: w = B⁻¹ a_q.
		w := s.bufW
		for i := range w {
			w[i] = 0
		}
		s.scatterCol(q, w)
		s.f.ftran(w)

		// Ratio test. Entering moves by t ≥ 0 in direction dir; basic i
		// changes at rate -dir·w[i]. tBasic is the largest step before some
		// basic variable hits a bound; flipDist is the entering variable's
		// own bound-to-bound range.
		flipDist := math.Inf(1)
		if !math.IsInf(s.upper[q], 1) && !math.IsInf(s.lower[q], -1) {
			flipDist = s.upper[q] - s.lower[q]
		}
		tBasic := math.Inf(1)
		leave, leaveAbs := -1, 0.0
		var leaveAt int8
		const pivTol = 1e-9
		for i := 0; i < s.m; i++ {
			if math.Abs(w[i]) < pivTol {
				continue
			}
			rate := -dir * w[i]
			jb := s.basis[i]
			var t float64
			var hits int8
			if rate < 0 { // basic decreases toward lower bound
				if math.IsInf(s.lower[jb], -1) {
					continue
				}
				t = (s.lower[jb] - s.xB[i]) / rate
				hits = statAtLower
			} else { // basic increases toward upper bound
				if math.IsInf(s.upper[jb], 1) {
					continue
				}
				t = (s.upper[jb] - s.xB[i]) / rate
				hits = statAtUpper
			}
			if t < 0 {
				t = 0 // degenerate: already at (or slightly past) the bound
			}
			// Prefer strictly smaller ratios; on near ties keep the larger
			// pivot magnitude for numerical stability.
			if t < tBasic-1e-10 {
				tBasic = t
				leave, leaveAbs, leaveAt = i, math.Abs(w[i]), hits
			} else if t < tBasic+1e-10 && math.Abs(w[i]) > leaveAbs {
				leave, leaveAbs, leaveAt = i, math.Abs(w[i]), hits
			}
		}
		if math.IsInf(tBasic, 1) && math.IsInf(flipDist, 1) {
			return StatusUnbounded
		}
		step := math.Min(tBasic, flipDist)

		// Track degeneracy; switch to Bland's rule on long degenerate runs
		// to guarantee termination.
		if step <= 1e-12 {
			s.degens++
			s.degenRun++
			if s.degenRun > 200 && s.blandLeft == 0 {
				s.blandLeft = 5000
			}
		} else {
			s.degenRun = 0
		}
		if s.blandLeft > 0 {
			s.blandLeft--
		}

		if flipDist <= tBasic {
			// Bound flip: entering traverses its whole range, basis intact.
			for i := 0; i < s.m; i++ {
				if w[i] != 0 {
					s.xB[i] -= dir * w[i] * flipDist
				}
			}
			if s.stat[q] == statAtLower {
				s.stat[q] = statAtUpper
			} else {
				s.stat[q] = statAtLower
			}
			continue
		}
		// Devex weight update (Forrest-Goldfarb) using the pivot row
		// ρᵀA with ρ = B⁻ᵀ e_p, before the basis changes.
		if !bland && !s.opt.Dantzig {
			rho := s.bufR
			for i := range rho {
				rho[i] = 0
			}
			rho[leave] = 1
			s.f.btran(rho)
			a := w[leave]
			gq := s.devex[q]
			maxW := 1.0
			for j := 0; j < s.total; j++ {
				if s.stat[j] == statBasic || s.fixed(j) || j == q {
					continue
				}
				alpha := s.colDot(j, rho)
				if alpha == 0 {
					continue
				}
				cand := (alpha / a) * (alpha / a) * gq
				if cand > s.devex[j] {
					s.devex[j] = cand
				}
				if s.devex[j] > maxW {
					maxW = s.devex[j]
				}
			}
			gl := gq / (a * a)
			if gl < 1 {
				gl = 1
			}
			s.devex[s.basis[leave]] = gl
			if maxW > 1e8 {
				s.resetDevex()
			}
		}

		// Pivot: q enters at position leave.
		enterVal := s.nonbasicValue(q) + dir*step
		for i := 0; i < s.m; i++ {
			if w[i] != 0 {
				s.xB[i] -= dir * w[i] * step
			}
		}
		jOut := s.basis[leave]
		s.stat[jOut] = leaveAt
		s.basis[leave] = int32(q)
		s.stat[q] = statBasic
		s.xB[leave] = enterVal
		if !s.f.pushEta(leave, w) {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
		}
	}
}
