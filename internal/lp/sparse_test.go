package lp

import (
	"fmt"
	"math"
	"math/rand"
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

// randomSparseFactor factors a random sparse nonsingular m×m basis — a
// permuted diagonal plus up to three off-diagonals per column, which leaves
// planOrder a bump and so gives L columns — and pushes etas for up to etas
// random entering columns.
func randomSparseFactor(rng *rand.Rand, m, etas int) *factor {
	f := newFactor(m)
	all := make([]int32, m)
	for i := range all {
		all[i] = int32(i)
	}
	for {
		perm := rng.Perm(m)
		rows := make([][]int32, m)
		vals := make([][]float64, m)
		for k := range rows {
			rows[k] = []int32{int32(perm[k])}
			vals[k] = []float64{(2 + rng.Float64()) * float64(1-2*rng.Intn(2))}
			for e := rng.Intn(4); e > 0; e-- {
				r := int32(rng.Intn(m))
				if r != rows[k][0] && (len(rows[k]) < 2 || r != rows[k][1]) && (len(rows[k]) < 3 || r != rows[k][2]) {
					rows[k] = append(rows[k], r)
					vals[k] = append(vals[k], rng.NormFloat64())
				}
			}
		}
		err := f.refactorize(func(k int, w []float64) []int32 {
			for s, r := range rows[k] {
				w[r] += vals[k][s]
			}
			return rows[k]
		})
		if err == nil {
			break
		}
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
