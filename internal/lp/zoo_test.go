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
