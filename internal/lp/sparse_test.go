package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSparseSolves compares ftranSparse and btranSparse with the dense
// ftran and btran bitwise on f's current factorization and eta file, at
// pattern limits that keep every solve sparse, switch to the dense sweep at
// the default m/16, and force the dense sweep. fin and bin fill a zero
// right-hand side for FTRAN and BTRAN and return its pattern. It returns
// how many solves at the default limit ended within it and past it.
func checkSparseSolves(f *factor, probes int, fin, bin func(buf []float64) []int32) (within, past int, err error) {
	m, def := f.m, f.sparseMax
	defer func() { f.sparseMax = def }()
	dense := make([]float64, m)
	sparse := make([]float64, m)
	covered := make([]bool, m)
	var pat []int32
	for probe := 0; probe < probes; probe++ {
		for _, bt := range []bool{false, true} {
			clear(dense)
			var in []int32
			if bt {
				in = bin(dense)
			} else {
				in = fin(dense)
			}
			in = append([]int32(nil), in...)
			input := append([]float64(nil), dense...)
			if bt {
				f.btran(dense)
			} else {
				f.ftran(dense)
			}
			for _, limit := range []int{m, def, 0} {
				f.sparseMax = limit
				copy(sparse, input)
				name := "ftran"
				if bt {
					name = "btran"
					pat = f.btranSparse(sparse, in, pat)
				} else {
					pat = f.ftranSparse(sparse, in, pat)
				}
				if limit == def {
					if len(pat) <= def {
						within++
					} else {
						past++
					}
				}
				clear(covered)
				for k, i := range pat {
					if covered[i] {
						return within, past, fmt.Errorf("%s limit %d: entry %d twice in the pattern", name, limit, i)
					}
					covered[i] = true
					if bt && k > 0 && pat[k-1] > i {
						return within, past, fmt.Errorf("%s limit %d: pattern not ascending at %d", name, limit, k)
					}
				}
				for i := range dense {
					if math.Float64bits(dense[i]) != math.Float64bits(sparse[i]) {
						return within, past, fmt.Errorf("%s limit %d: entry %d is %v sparse, %v dense", name, limit, i, sparse[i], dense[i])
					}
					if !covered[i] && math.Float64bits(sparse[i]) != 0 {
						return within, past, fmt.Errorf("%s limit %d: nonzero entry %d outside the pattern", name, limit, i)
					}
				}
				for i, v := range f.sparse {
					if math.Float64bits(v) != 0 {
						return within, past, fmt.Errorf("%s limit %d: scratch entry %d left at %v", name, limit, i, v)
					}
				}
			}
		}
	}
	return within, past, nil
}

// randomBasis returns the columns of a random sparse m×m basis: a permuted
// diagonal plus up to three off-diagonals per column, which leaves planOrder
// a bump and so gives L columns. About a third of the columns are unit
// columns e_r on their diagonal row, and unit[k] is that row (-1 for the
// other columns). Bases drawn this way may be singular.
func randomBasis(rng *rand.Rand, m int) (rows [][]int32, vals [][]float64, unit []int32) {
	perm := rng.Perm(m)
	rows = make([][]int32, m)
	vals = make([][]float64, m)
	unit = make([]int32, m)
	for k := range rows {
		rows[k] = []int32{int32(perm[k])}
		unit[k] = -1
		if rng.Intn(3) == 0 {
			vals[k] = []float64{1}
			unit[k] = int32(perm[k])
			continue
		}
		vals[k] = []float64{(2 + rng.Float64()) * float64(1-2*rng.Intn(2))}
		for e := rng.Intn(4); e > 0; e-- {
			r := int32(rng.Intn(m))
			if r != rows[k][0] && (len(rows[k]) < 2 || r != rows[k][1]) && (len(rows[k]) < 3 || r != rows[k][2]) {
				rows[k] = append(rows[k], r)
				vals[k] = append(vals[k], rng.NormFloat64())
			}
		}
	}
	return rows, vals, unit
}

// factorBasis factors the basis with the given columns, marking its unit
// columns as such if marked is set.
func factorBasis(rows [][]int32, vals [][]float64, unit []int32, marked bool) (*factor, error) {
	f := newFactor(len(rows))
	if marked {
		copy(f.unit, unit)
	}
	err := f.refactorize(func(k int, w []float64) []int32 {
		if f.unit[k] >= 0 {
			panic("column callback called for a marked unit column")
		}
		for s, r := range rows[k] {
			w[r] += vals[k][s]
		}
		return rows[k]
	})
	return f, err
}

// randomSparseFactor factors a random sparse nonsingular m×m basis from
// randomBasis, its unit columns marked, and pushes etas for up to etas
// random entering columns.
func randomSparseFactor(rng *rand.Rand, m, etas int) *factor {
	var f *factor
	for {
		rows, vals, unit := randomBasis(rng, m)
		var err error
		if f, err = factorBasis(rows, vals, unit, true); err == nil {
			break
		}
	}
	all := make([]int32, m)
	for i := range all {
		all[i] = int32(i)
	}
	w := make([]float64, m)
	for e := 0; e < etas; e++ {
		clear(w)
		randomSparseVec(rng, w, 1+rng.Intn(4))
		f.ftran(w)
		p := 0
		for i := range w {
			if math.Abs(w[i]) > math.Abs(w[p]) {
				p = i
			}
		}
		if math.Abs(w[p]) > 1e-3 {
			f.pushEta(p, w, all)
		}
	}
	return f
}

// sameFactor reports the first difference between two factorizations of
// one basis: processing order, pivot rows, diagonals, and L and U, bitwise.
func sameFactor(a, b *factor) error {
	for pos := 0; pos < a.m; pos++ {
		if a.slotOfPos[pos] != b.slotOfPos[pos] || a.pivRow[pos] != b.pivRow[pos] {
			return fmt.Errorf("position %d: slot %d row %d, against slot %d row %d", pos, a.slotOfPos[pos], a.pivRow[pos], b.slotOfPos[pos], b.pivRow[pos])
		}
		if math.Float64bits(a.uDiag[pos]) != math.Float64bits(b.uDiag[pos]) {
			return fmt.Errorf("position %d: diagonal %v against %v", pos, a.uDiag[pos], b.uDiag[pos])
		}
		for _, c := range []struct {
			name   string
			ai, bi []int32
			av, bv []float64
		}{
			{"L", a.lIdx[a.lPtr[pos]:a.lPtr[pos+1]], b.lIdx[b.lPtr[pos]:b.lPtr[pos+1]], a.lVal[a.lPtr[pos]:a.lPtr[pos+1]], b.lVal[b.lPtr[pos]:b.lPtr[pos+1]]},
			{"U", a.uIdx[a.uPtr[pos]:a.uPtr[pos+1]], b.uIdx[b.uPtr[pos]:b.uPtr[pos+1]], a.uVal[a.uPtr[pos]:a.uPtr[pos+1]], b.uVal[b.uPtr[pos]:b.uPtr[pos+1]]},
		} {
			if len(c.ai) != len(c.bi) {
				return fmt.Errorf("position %d: %d %s entries against %d", pos, len(c.ai), c.name, len(c.bi))
			}
			for k := range c.ai {
				if c.ai[k] != c.bi[k] || math.Float64bits(c.av[k]) != math.Float64bits(c.bv[k]) {
					return fmt.Errorf("position %d: %s entry %d is (%d, %v) against (%d, %v)", pos, c.name, k, c.ai[k], c.av[k], c.bi[k], c.bv[k])
				}
			}
		}
	}
	if !slices.Equal(a.lCols, b.lCols) {
		return fmt.Errorf("L columns %v against %v", a.lCols, b.lCols)
	}
	return nil
}

// TestUnitColumnsFactorBitwise: marking unit columns changes only the cost
// of a refactorization. On random bases, factoring with and without the
// marks gives the same processing order, pivot rows, diagonals, L and U
// bits, or fails on both; the bases include unit columns whose rows other
// columns contain, and ones where an earlier column claims a unit column's
// row, which makes the basis singular.
func TestUnitColumnsFactorBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	factored, shared, withL, singular := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		m := 8 + rng.Intn(200)
		rows, vals, unit := randomBasis(rng, m)
		claimed := false
		if trial%4 == 3 {
			// The last slot, the singleton sweep's first, claims the row of a
			// unit column before that column's turn.
			for k := m - 2; k >= 0 && !claimed; k-- {
				if unit[k] >= 0 {
					rows[m-1], vals[m-1], unit[m-1] = []int32{unit[k]}, []float64{3}, -1
					claimed = true
				}
			}
		}
		plain, errPlain := factorBasis(rows, vals, unit, false)
		marked, errMarked := factorBasis(rows, vals, unit, true)
		if errPlain != errMarked {
			t.Fatalf("trial %d (m=%d, claimed=%v): %v unmarked, %v marked", trial, m, claimed, errPlain, errMarked)
		}
		if claimed {
			if errPlain == nil {
				t.Fatalf("trial %d (m=%d): a basis where a column claims a unit column's row factored", trial, m)
			}
			singular++
			continue
		}
		if errPlain != nil {
			continue
		}
		if err := sameFactor(plain, marked); err != nil {
			t.Fatalf("trial %d (m=%d): unmarked against marked: %v", trial, m, err)
		}
		factored++
		if len(marked.lCols) > 0 {
			withL++
		}
		for r := range marked.unitAt {
			if marked.unitAt[r] >= 0 && marked.rsPtr[r+1] > marked.rsPtr[r] {
				shared++
				break
			}
		}
	}
	t.Logf("%d bases factored (%d with a unit column's row in another column, %d with L columns), %d with a claimed unit row refused",
		factored, shared, withL, singular)
	if factored < 50 || shared < factored/2 || withL == 0 || singular < 50 {
		t.Fatalf("%d bases factored, %d sharing a unit row, %d with L columns, %d claimed; the test exercises too little",
			factored, shared, withL, singular)
	}
}

// randomSparseVec sets k random entries of the zero vector w and returns
// their indices. A few are set to +0 or −0: callers' patterns may list
// entries that cancelled, and ρ can carry a −0 into τ's FTRAN.
func randomSparseVec(rng *rand.Rand, w []float64, k int) []int32 {
	var pat []int32
	for ; k > 0; k-- {
		i := int32(rng.Intn(len(w)))
		pat = append(pat, i) // duplicates allowed
		switch rng.Intn(8) {
		case 0:
			w[i] = math.Copysign(0, -1)
		case 1:
			w[i] = 0
		default:
			w[i] = rng.NormFloat64()
		}
	}
	return pat
}

// TestSparseSolvesMatchDense: on random sparse bases with eta files, the
// pattern-driven FTRAN and BTRAN return exactly the dense solves' bits, with
// every nonzero inside the returned pattern, whether they stay sparse,
// switch to the dense sweep partway, or start dense.
func TestSparseSolvesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	within, past := 0, 0
	for trial := 0; trial < 40; trial++ {
		m := 64 + rng.Intn(400)
		f := randomSparseFactor(rng, m, rng.Intn(24))
		vec := func(buf []float64) []int32 { return randomSparseVec(rng, buf, 1+rng.Intn(3)) }
		a, b, err := checkSparseSolves(f, 20, vec, vec)
		if err != nil {
			t.Fatalf("trial %d (m=%d, %d L columns, %d etas): %v", trial, m, len(f.lCols), f.numEtas, err)
		}
		within += a
		past += b
	}
	t.Logf("at the m/16 limit: %d solves ended within it, %d past it", within, past)
	if within == 0 || past == 0 {
		t.Fatalf("solves ended within the limit %d times and past it %d times; want both sides covered", within, past)
	}
}

// scanLeavingRow is the dual simplex's leaving-row choice as an ascending
// scan over every basis position.
func scanLeavingRow(s *simplex, classic bool) (leave int, at int8) {
	leave, best := -1, 0.0
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		var viol float64
		var st int8
		if d := s.lower[j] - s.xB[i]; d > s.rowTol {
			viol, st = d, statAtLower
		} else if d := s.xB[i] - s.upper[j]; d > s.rowTol {
			viol, st = d, statAtUpper
		} else {
			continue
		}
		score := viol
		if !classic {
			score = viol * viol / s.dse[i]
		}
		if score > best {
			leave, best, at = i, score, st
		}
	}
	return leave, at
}

// TestLeavingRowMatchesScan: choosing the leaving row from the maintained
// infeasible-row list agrees with an ascending scan over every row, ties
// (which the small integer violations and weights here make common)
// included, as basic values move in and out of their bounds.
func TestLeavingRowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	chosen := 0
	for trial := 0; trial < 200; trial++ {
		s := newSimplex(randomBoxLP(rng), Options{})
		if s.m == 0 {
			continue
		}
		s.initialPoint()
		s.resetDSE()
		s.rowTol = s.opt.Tol
		s.listInfeasible()
		for step := 0; step < 30; step++ {
			for k := rng.Intn(4); k >= 0; k-- {
				i := rng.Intn(s.m)
				j := s.basis[i]
				d := float64(rng.Intn(3))
				if rng.Intn(2) == 0 && !math.IsInf(s.lower[j], -1) {
					s.xB[i] = s.lower[j] - d
				} else if !math.IsInf(s.upper[j], 1) {
					s.xB[i] = s.upper[j] + d
				} else {
					s.xB[i] = s.lower[j] - d
				}
				s.dse[i] = float64(1 + rng.Intn(2))
				s.noteInfeasible(int32(i))
			}
			for _, classic := range []bool{false, true} {
				wantLeave, wantAt := scanLeavingRow(s, classic)
				leave, at := s.leavingRow(classic)
				if leave != wantLeave || (leave >= 0 && at != wantAt) {
					t.Fatalf("trial %d step %d classic=%v: list chose row %d (%d), scan row %d (%d)",
						trial, step, classic, leave, at, wantLeave, wantAt)
				}
				if leave >= 0 {
					chosen++
				}
			}
		}
	}
	if chosen < 1000 {
		t.Fatalf("only %d leaving rows chosen; the test exercises too little", chosen)
	}
}
