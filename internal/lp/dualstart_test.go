package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomNonnegCostLP builds a random LP whose costs are all ≥ 0 over
// variables at lower bound 0, so the cold slack basis is dual-feasible and
// the dual start applies. GE and EQ rows with positive right-hand sides make
// that basis primal-infeasible, and many instances have no feasible point.
func randomNonnegCostLP(rng *rand.Rand) *Problem {
	n := 4 + rng.Intn(16)
	m := 3 + rng.Intn(12)
	p := &Problem{}
	for j := 0; j < n; j++ {
		hi := Inf
		if rng.Intn(3) > 0 {
			hi = float64(1 + rng.Intn(4))
		}
		p.AddVar(0, hi, float64(rng.Intn(10)), "v")
	}
	for i := 0; i < m; i++ {
		var idx []int32
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				if c := float64(rng.Intn(9) - 3); c != 0 {
					idx = append(idx, int32(j))
					val = append(val, c)
				}
			}
		}
		if len(idx) == 0 {
			continue
		}
		rhs := float64(rng.Intn(10))
		switch rng.Intn(4) {
		case 0:
			p.AddRow(LE, rhs, idx, val)
		case 1, 2:
			p.AddRow(GE, rhs, idx, val)
		default:
			p.AddRow(EQ, rhs, idx, val)
		}
	}
	return p
}

// TestDualStartMatchesTwoPhase: on random LPs with nonnegative costs the
// cold dual start and the two-phase primal agree on status and optimal
// objective, under both pivot-rule sets.
func TestDualStartMatchesTwoPhase(t *testing.T) {
	for _, dantzig := range []bool{false, true} {
		rng := rand.New(rand.NewSource(211))
		opt := Options{Dantzig: dantzig}
		optimal, infeasible, certified, dualStarts := 0, 0, 0, 0
		for trial := 0; trial < 400; trial++ {
			p := randomNonnegCostLP(rng)
			got := p.Solve(opt)
			want := TwoPhase(p, opt)
			if got.Status != want.Status {
				t.Fatalf("dantzig=%v trial %d: dual start %v, two-phase %v", dantzig, trial, got.Status, want.Status)
			}
			if got.DualStartIters > 0 {
				dualStarts++
			}
			if got.Warm || got.DualIters != 0 {
				t.Fatalf("dantzig=%v trial %d: cold solve reported warm work (warm=%v, dual iters %d)", dantzig, trial, got.Warm, got.DualIters)
			}
			switch got.Status {
			case StatusInfeasible:
				infeasible++
				if got.Phase1Iters == 0 {
					certified++ // decided by the dual ray's certificate
				}
			case StatusOptimal:
				optimal++
				if math.Abs(got.Obj-want.Obj) > 1e-9*math.Max(1, math.Abs(want.Obj)) {
					t.Fatalf("dantzig=%v trial %d: dual start obj %.15g, two-phase %.15g", dantzig, trial, got.Obj, want.Obj)
				}
				if err := p.CheckFeasible(got.X, 1e-6); err != nil {
					t.Fatalf("dantzig=%v trial %d: dual start point: %v", dantzig, trial, err)
				}
				if got.DualStartIters > 0 && got.Phase1Iters != 0 {
					t.Fatalf("dantzig=%v trial %d: dual start also ran %d phase-1 iterations", dantzig, trial, got.Phase1Iters)
				}
			}
		}
		t.Logf("dantzig=%v: %d optimal, %d infeasible (%d certified by a dual ray), %d dual starts",
			dantzig, optimal, infeasible, certified, dualStarts)
		if optimal < 100 || infeasible < 50 || certified < infeasible/2 || dualStarts < 200 {
			t.Fatalf("dantzig=%v: too few informative trials", dantzig)
		}
	}
}

// certifies reports whether row combination rho proves p infeasible.
func certifies(p *Problem, rho []float64) bool {
	s := newSimplex(p, Options{})
	cols := s.pivotRow(rho)
	defer s.clearPivotRow(cols)
	return s.farkasInfeasible(rho, cols)
}

// TestFarkasCertificateSound: no row combination certifies a feasible LP
// infeasible — including LPs whose rows are tight at the variable bounds,
// where ρᵀb sits exactly on the edge of the attainable range — while a
// plainly contradictory row is certified.
func TestFarkasCertificateSound(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 300; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomBoxLP(rng)
		} else {
			p, _ = randomFeasibleLP(rng)
		}
		if p.NumRows() == 0 {
			continue
		}
		for k := 0; k < 10; k++ {
			rho := make([]float64, p.NumRows())
			for i := range rho {
				if rng.Float64() < 0.5 {
					rho[i] = rng.NormFloat64()
				}
			}
			if certifies(p, rho) {
				t.Fatalf("trial %d: ρ=%v certifies a feasible LP infeasible", trial, rho)
			}
		}
	}

	// x, y ∈ [0,1] with x + y = 2 is feasible only at the corner, and
	// x + y ≤ 2 with x + y ≥ 2 likewise: ρᵀb meets the range's edge.
	tight := &Problem{}
	tight.AddVar(0, 1, 1, "x")
	tight.AddVar(0, 1, 1, "y")
	tight.AddRow(EQ, 2, []int32{0, 1}, []float64{1, 1})
	tight.AddRow(GE, 2, []int32{0, 1}, []float64{1, 1})
	tight.AddRow(LE, 2, []int32{0, 1}, []float64{1, 1})
	for _, rho := range [][]float64{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, 0, -1}, {0, 1, 1}} {
		if certifies(tight, rho) {
			t.Fatalf("ρ=%v certifies the tight feasible LP infeasible", rho)
		}
	}
	if sol := tight.Solve(Options{}); sol.Status != StatusOptimal {
		t.Fatalf("tight LP: %v", sol.Status)
	}

	// x, y ∈ [0,1] with x + y ≥ 3: the row itself is the certificate.
	empty := &Problem{}
	empty.AddVar(0, 1, 1, "x")
	empty.AddVar(0, 1, 1, "y")
	empty.AddRow(GE, 3, []int32{0, 1}, []float64{1, 1})
	if !certifies(empty, []float64{1}) {
		t.Fatal("x + y ≥ 3 over the unit box is not certified infeasible")
	}
	if sol := empty.Solve(Options{}); sol.Status != StatusInfeasible || sol.Phase1Iters != 0 {
		t.Fatalf("x + y ≥ 3: status %v after %d phase-1 iterations; want a certified infeasible", sol.Status, sol.Phase1Iters)
	}
}
