package lp_test

import (
	"math"
	"testing"

	"repro/checkmate"
	"repro/internal/core"
	"repro/internal/lp"
)

// TestZooRootLPsDualStart solves the root LPs of three paper models at the
// benchmark grid's budgets (batch 4, 12 segments, 30% and 50% of the way
// from MinBudget to the checkpoint-all peak) both ways: the cold dual start
// must reach the two-phase primal's objective, and must be reported as
// cold-start dual work, not as warm reoptimization or phase 1.
func TestZooRootLPsDualStart(t *testing.T) {
	if testing.Short() {
		t.Skip("solves six model-sized LPs twice")
	}
	for _, model := range []string{"vgg16", "unet", "transformer"} {
		wl, err := checkmate.Load(model, checkmate.Options{Batch: 4, CoarseSegments: 12})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
		for _, frac := range []float64{0.3, 0.5} {
			inst := core.Instance{G: wl.Graph, Budget: lo + int64(frac*float64(hi-lo)), Overhead: wl.Overhead}
			f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
			if err != nil {
				t.Fatal(err)
			}
			got := f.Prob.LP.Solve(lp.Options{})
			want := lp.TwoPhase(f.Prob.LP, lp.Options{})
			if got.Status != lp.StatusOptimal || want.Status != lp.StatusOptimal {
				t.Fatalf("%s %.1f: dual start %v, two-phase %v", model, frac, got.Status, want.Status)
			}
			if math.Abs(got.Obj-want.Obj) > 1e-9*math.Max(1, math.Abs(want.Obj)) {
				t.Errorf("%s %.1f: dual start obj %.15g, two-phase %.15g", model, frac, got.Obj, want.Obj)
			}
			if got.Warm || got.DualIters != 0 || got.Phase1Iters != 0 || got.DualStartIters <= 0 {
				t.Errorf("%s %.1f: warm=%v dual=%d phase1=%d dual-start=%d; want a cold dual start only",
					model, frac, got.Warm, got.DualIters, got.Phase1Iters, got.DualStartIters)
			}
			// The dual start exists to be cheaper; at the seed it took 3.8–6.7×
			// fewer pivots here, and the primal confirmation pass only a few.
			if 2*got.Iters > want.Iters || got.Iters-got.DualStartIters > 5 {
				t.Errorf("%s %.1f: dual start took %d iterations (%d of them dual), two-phase %d",
					model, frac, got.Iters, got.DualStartIters, want.Iters)
			}
			t.Logf("%s %.1f: %d dual-start iterations (%d in all), two-phase %d", model, frac, got.DualStartIters, got.Iters, want.Iters)
		}
	}
}

// TestZooRootsSparseSolvesBitwise: the pattern-driven FTRAN and BTRAN and
// the refactorization's unit-column shortcut change only speed. On three
// zoo roots, keeping every solve sparse, switching to the dense sweep at the
// default m/16, always sweeping densely, and refactoring every slack column
// by elimination take the same dual pivots to the same objective bits; and
// at each root's optimal basis, grown by an eta file, the sparse solves
// return the dense ones' bits.
func TestZooRootsSparseSolvesBitwise(t *testing.T) {
	for _, model := range []string{"vgg16", "unet", "transformer"} {
		wl, err := checkmate.Load(model, checkmate.Options{Batch: 4, CoarseSegments: 12})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
		inst := core.Instance{G: wl.Graph, Budget: lo + int64(0.3*float64(hi-lo)), Overhead: wl.Overhead}
		f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
		if err != nil {
			t.Fatal(err)
		}
		p := f.Prob.LP
		ref, refSeq := lp.DualPivots(p, -1, false)
		if ref.Status != lp.StatusOptimal || len(refSeq) == 0 {
			t.Fatalf("%s: %v after %d dual pivots", model, ref.Status, len(refSeq))
		}
		for _, v := range []struct {
			name    string
			limit   int
			noUnits bool
		}{
			{"sparse limit 0", 0, false},
			{"sparse limit m", p.NumRows(), false},
			{"no unit columns", -1, true},
		} {
			got, seq := lp.DualPivots(p, v.limit, v.noUnits)
			if got.Status != ref.Status || got.Iters != ref.Iters || got.Refactors != ref.Refactors || math.Float64bits(got.Obj) != math.Float64bits(ref.Obj) {
				t.Fatalf("%s, %s: %v in %d iterations (%d refactorizations), obj %x; default %v in %d (%d), obj %x",
					model, v.name, got.Status, got.Iters, got.Refactors, math.Float64bits(got.Obj), ref.Status, ref.Iters, ref.Refactors, math.Float64bits(ref.Obj))
			}
			if len(seq) != len(refSeq) {
				t.Fatalf("%s, %s: %d dual pivots, default %d", model, v.name, len(seq), len(refSeq))
			}
			for k := range seq {
				if seq[k] != refSeq[k] {
					t.Fatalf("%s, %s: pivot %d is (leave, enter) %v, default %v", model, v.name, k, seq[k], refSeq[k])
				}
			}
		}
		if err := lp.SparseSolvesMatchDense(p, ref.Basis, 1); err != nil {
			t.Errorf("%s: %v", model, err)
		}
		t.Logf("%s: %d dual pivots, %d refactorizations, m=%d", model, len(refSeq), ref.Refactors, p.NumRows())
	}
}
