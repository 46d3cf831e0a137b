package lp

import (
	"errors"
	"math"
	"math/rand"
)

// TwoPhase solves p cold with the two-phase primal method alone — the path
// every cold solve took before the dual start — so tests can hold the dual
// start to its results.
func TwoPhase(p *Problem, opt Options) *Solution {
	s := newSimplex(p, opt)
	s.initialPoint()
	return s.primal(false)
}

// DualPivots solves p cold like Problem.Solve, with the sparse solves'
// pattern limit set to sparseMax (negative keeps the default m/16) and, if
// noUnits is set, no slack marked as a unit column, so that refactorization
// takes every basis column through the column callback and elimination. It
// returns each dual pivot's leaving position and entering column.
func DualPivots(p *Problem, sparseMax int, noUnits bool) (*Solution, [][2]int) {
	s := newSimplex(p, Options{})
	if sparseMax >= 0 {
		s.f.sparseMax = sparseMax
	}
	s.noUnits = noUnits
	var seq [][2]int
	s.onPivot = func(leave, enter int) { seq = append(seq, [2]int{leave, enter}) }
	return s.solve(), seq
}

// SparseSolvesMatchDense installs basis b on p, grows an eta file by
// pivoting random nonbasic columns in, and compares the sparse FTRAN and
// BTRAN with the dense ones bitwise on the right-hand sides a dual pivot
// solves: unit vectors (ρ), columns (w) and pivot rows (τ).
func SparseSolvesMatchDense(p *Problem, b *Basis, seed int64) error {
	s := newSimplex(p, Options{})
	if !s.installBasis(b) {
		return errors.New("basis not installed")
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, s.m)
	for e := 0; e < 20; e++ {
		q := rng.Intn(s.n + s.m)
		if s.stat[q] == statBasic {
			continue
		}
		clear(w)
		s.scatterCol(q, w)
		s.f.ftran(w)
		r := 0
		for i := range w {
			if math.Abs(w[i]) > math.Abs(w[r]) {
				r = i
			}
		}
		if math.Abs(w[r]) < 1e-3 || !s.f.pushEta(r, w, s.ident) {
			continue
		}
		s.stat[s.basis[r]] = statAtLower
		s.basis[r], s.stat[q] = int32(q), statBasic
	}
	unit := func(buf []float64) []int32 {
		r := rng.Intn(s.m)
		buf[r] = 1
		return s.ident[r : r+1]
	}
	fin := func(buf []float64) []int32 {
		if rng.Intn(2) == 0 {
			return s.scatterCol(rng.Intn(s.n+s.m), buf)
		}
		pat := unit(buf)
		return s.f.btranSparse(buf, pat, nil)
	}
	_, _, err := checkSparseSolves(s.f, 40, fin, unit)
	return err
}
