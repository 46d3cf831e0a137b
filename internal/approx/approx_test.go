package approx

import (
	"context"
	"errors"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/milp"
)

func trainInstance(t *testing.T, L int, budget int64) core.Instance {
	t.Helper()
	fwd := graph.New(L)
	for i := 0; i < L; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < L; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	ad, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		t.Fatal(err)
	}
	return core.Instance{G: ad.Graph, Budget: budget}
}

func TestDeterministicRoundingFeasibleAndValid(t *testing.T) {
	inst := trainInstance(t, 8, 8)
	r, err := Solve(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sched.Validate(inst.G, true); err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("rounding infeasible at generous budget: peak %v > %v", r.PeakBytes, inst.Budget)
	}
	if r.LPObj > r.Cost+1e-9 {
		t.Fatalf("LP bound %v above rounded cost %v", r.LPObj, r.Cost)
	}
}

func TestApproximationNearOptimal(t *testing.T) {
	// Table 2: two-phase rounding stays near the ILP. The paper reports
	// geometric-mean ratios ≤ 1.06 across feasible budgets on real networks;
	// at the very tightest budgets individual ratios can be larger, so the
	// bound here loosens as the budget shrinks.
	for _, tc := range []struct {
		budget   int64
		maxRatio float64
	}{{6, 2.0}, {8, 1.35}, {10, 1.2}} {
		inst := trainInstance(t, 8, tc.budget)
		opt, err := core.SolveILP(context.Background(), inst, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Status != milp.StatusOptimal {
			t.Fatalf("budget %d: ILP status %v", tc.budget, opt.Status)
		}
		r, err := SolveWithSearch(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("budget %d: %v", tc.budget, err)
		}
		ratio := r.Cost / opt.Cost
		if ratio < 1-1e-9 {
			t.Fatalf("budget %d: approximation %v beat the optimum %v", tc.budget, r.Cost, opt.Cost)
		}
		if ratio > tc.maxRatio {
			t.Fatalf("budget %d: approximation ratio %.3f too large", tc.budget, ratio)
		}
	}
}

func TestEpsilonDeflation(t *testing.T) {
	inst := trainInstance(t, 8, 10)
	tight, err := Solve(context.Background(), inst, Options{Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(context.Background(), inst, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// A larger allowance solves against a smaller budget, so its schedule
	// cannot be cheaper.
	if tight.Cost < loose.Cost-1e-9 {
		t.Fatalf("ε=0.4 cost %v cheaper than ε≈0 cost %v", tight.Cost, loose.Cost)
	}
}

func TestRandomizedRounding(t *testing.T) {
	inst := trainInstance(t, 6, 8)
	r, err := Solve(context.Background(), inst, Options{Randomized: true, Samples: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sched.Validate(inst.G, true); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesForFigure8(t *testing.T) {
	inst := trainInstance(t, 6, 8)
	det, rnd, err := Samples(context.Background(), inst, Options{Samples: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rnd) != 20 {
		t.Fatalf("want 20 randomized samples, got %d", len(rnd))
	}
	// Figure 8 takeaway: deterministic rounding is consistently at least as
	// good as the average randomized sample.
	var sum float64
	for _, r := range rnd {
		sum += r.Cost
		if err := r.Sched.Validate(inst.G, true); err != nil {
			t.Fatal(err)
		}
	}
	if det.Cost > sum/float64(len(rnd))+1e-9 {
		t.Fatalf("deterministic %v worse than randomized mean %v", det.Cost, sum/20)
	}
}

func TestDeterministicRoundingIsDeterministic(t *testing.T) {
	inst := trainInstance(t, 7, 8)
	a, err := Solve(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.PeakBytes != b.PeakBytes {
		t.Fatal("deterministic rounding produced different results")
	}
}

// coldSweep is the ε-search without basis chaining, driven through the
// formulation: it solves each ε of EpsGrid cold on one formulation and
// rounds it at the default threshold, stopping where the search stops (at
// the first infeasible LP, or once its best rounding reaches the ideal
// cost). It returns the best feasible rounding, nil if none, and the
// simplex iterations of every LP it solved.
func coldSweep(t *testing.T, inst core.Instance) (best *Result, iters int64) {
	t.Helper()
	f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	threshold := Options{}.withDefaults().Threshold
	for _, eps := range EpsGrid() {
		f.SetBudget(DeflatedBudget(inst.Budget, eps))
		rel, err := f.Relax(context.Background(), nil)
		iters += int64(rel.Iters)
		if errors.Is(err, core.ErrInfeasibleRelaxation) {
			break
		}
		if err != nil {
			t.Fatalf("ε=%v: %v", eps, err)
		}
		r := finish(inst, core.TwoPhaseRound(inst.G, rel.FS, threshold, nil), rel.Obj)
		if r.Feasible && (best == nil || r.Cost < best.Cost) {
			best = r
			if r.Sched.Recomputations() == 0 {
				break
			}
		}
	}
	return best, iters
}

// TestSearchWarmStartChaining: the ε-search must chain bases across its LP
// solves — most points warm-start — without degrading the rounding. Warm
// and cold solves can land on different (equally optimal) vertices of these
// degenerate LPs, and different vertices round differently, so the check is
// bounded quality, not equality: vertex polish keeps the chained result
// within a few percent of the cold sweep.
func TestSearchWarmStartChaining(t *testing.T) {
	inst := trainInstance(t, 10, 9)
	warm, err := SolveWithSearch(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldIters := coldSweep(t, inst)
	if !warm.Feasible || cold == nil {
		t.Fatalf("search returned infeasible best: warm=%v, cold found a feasible rounding: %v", warm.Feasible, cold != nil)
	}
	if warm.Cost > cold.Cost*1.10+1e-9 {
		t.Fatalf("warm-chained search cost %v degraded >10%% vs cold %v", warm.Cost, cold.Cost)
	}
	if warm.Search.LPSolves < 2 {
		t.Fatalf("search solved only %d LPs", warm.Search.LPSolves)
	}
	if warm.Search.WarmHits == 0 {
		t.Fatal("no ε LP warm-started from the previous basis")
	}
	if warm.Search.SimplexIters >= coldIters {
		t.Fatalf("basis chaining did not reduce simplex work: %d warm vs %d cold iters",
			warm.Search.SimplexIters, coldIters)
	}
	if err := warm.Sched.Validate(inst.G, true); err != nil {
		t.Fatal(err)
	}
}
