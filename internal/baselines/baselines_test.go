package baselines

import (
	"context"
	"math"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
)

// linTarget builds a unit-cost linear training target with L layers.
func linTarget(t *testing.T, L int) *Target {
	t.Helper()
	fwd := graph.New(L)
	for i := 0; i < L; i++ {
		fwd.AddNode(graph.Node{Name: "f", Cost: 1, Mem: 1})
	}
	for i := 1; i < L; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	ad, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		t.Fatal(err)
	}
	return &Target{AD: ad, Fwd: fwd}
}

// skipTarget builds a target with a residual-style skip connection.
func skipTarget(t *testing.T, L int) *Target {
	t.Helper()
	fwd := graph.New(L)
	for i := 0; i < L; i++ {
		fwd.AddNode(graph.Node{Name: "f", Cost: 1, Mem: 1})
	}
	for i := 1; i < L; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	fwd.MustEdge(0, graph.NodeID(L-1))
	ad, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		t.Fatal(err)
	}
	return &Target{AD: ad, Fwd: fwd}
}

func TestCheckpointAllPoint(t *testing.T) {
	tg := linTarget(t, 6)
	p := CheckpointAll(tg)
	if p.Cost != float64(tg.AD.Graph.Len()) {
		t.Fatalf("cost=%v want %v", p.Cost, tg.AD.Graph.Len())
	}
	if err := p.Sched.Validate(tg.AD.Graph, true); err != nil {
		t.Fatal(err)
	}
}

func TestChenSqrtNLinear(t *testing.T) {
	tg := linTarget(t, 9)
	p, err := ChenSqrtN(tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Sched.Validate(tg.AD.Graph, true); err != nil {
		t.Fatal(err)
	}
	ca := CheckpointAll(tg)
	if p.PeakBytes >= ca.PeakBytes {
		t.Fatalf("√n checkpointing did not reduce memory: %v vs %v", p.PeakBytes, ca.PeakBytes)
	}
	if p.Cost <= ca.Cost {
		t.Fatalf("√n must pay recomputation: %v vs %v", p.Cost, ca.Cost)
	}
}

func TestChenSqrtNRejectsNonLinear(t *testing.T) {
	tg := skipTarget(t, 6)
	if _, err := ChenSqrtN(tg); err == nil {
		t.Fatal("expected error on non-linear graph")
	}
	if _, err := ChenGreedy(tg, 4); err == nil {
		t.Fatal("expected error on non-linear graph")
	}
}

func TestChenGreedyTradeoff(t *testing.T) {
	tg := linTarget(t, 12)
	// Small b → many checkpoints → low cost, high memory. Large b → few
	// checkpoints → high cost, low memory.
	small, err := ChenGreedy(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ChenGreedy(tg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if small.Cost > large.Cost {
		t.Fatalf("smaller b should cost less: %v vs %v", small.Cost, large.Cost)
	}
	if small.PeakBytes < large.PeakBytes {
		t.Fatalf("smaller b should use more memory: %v vs %v", small.PeakBytes, large.PeakBytes)
	}
}

func TestAPVariantsOnSkipGraph(t *testing.T) {
	tg := skipTarget(t, 8)
	sq := APSqrtN(tg)
	if err := sq.Sched.Validate(tg.AD.Graph, true); err != nil {
		t.Fatal(err)
	}
	gr := APGreedy(tg, 2)
	if err := gr.Sched.Validate(tg.AD.Graph, true); err != nil {
		t.Fatal(err)
	}
	// Node 0 and L-1 bridge the skip; interior nodes 1..L-2 are NOT
	// articulation points because of the skip edge, so AP candidates are
	// fewer than the linearized candidates.
	if len(apCandidates(tg)) >= tg.Fwd.Len() {
		t.Fatalf("AP candidates should be restricted: %d", len(apCandidates(tg)))
	}
}

func TestLinearizedVariantsMatchChenOnLinearGraphs(t *testing.T) {
	// Appendix B: "all proposed generalizations exactly reproduce the
	// original heuristics on linear networks."
	tg := linTarget(t, 9)
	chen, err := ChenSqrtN(tg)
	if err != nil {
		t.Fatal(err)
	}
	lin := LinearizedSqrtN(tg)
	if chen.Cost != lin.Cost || chen.PeakBytes != lin.PeakBytes {
		t.Fatalf("linearized √n diverges on a linear graph: (%v,%v) vs (%v,%v)",
			chen.Cost, chen.PeakBytes, lin.Cost, lin.PeakBytes)
	}
	cg, err := ChenGreedy(tg, 3)
	if err != nil {
		t.Fatal(err)
	}
	lg := LinearizedGreedy(tg, 3)
	if cg.Cost != lg.Cost || cg.PeakBytes != lg.PeakBytes {
		t.Fatal("linearized greedy diverges on a linear graph")
	}
	// AP variants likewise: every interior node of a chain is an AP... the
	// candidate sets differ only by endpoints, so costs must match closely.
	ap := APSqrtN(tg)
	if ap.Cost > chen.Cost*1.5 {
		t.Fatalf("AP √n far from Chen √n on a linear graph: %v vs %v", ap.Cost, chen.Cost)
	}
}

func TestRevolveDPClosedForm(t *testing.T) {
	// rev(l, 0) = l(l+1)/2; rev(l, large) = l (store everything).
	for l := 1; l <= 12; l++ {
		if got := RevolveAdvances(l, 0); got != l*(l+1)/2 {
			t.Fatalf("rev(%d,0)=%d want %d", l, got, l*(l+1)/2)
		}
		if got := RevolveAdvances(l, l); got != l {
			t.Fatalf("rev(%d,%d)=%d want %d", l, l, got, l)
		}
	}
	// Monotone in both arguments.
	for l := 2; l <= 12; l++ {
		for c := 1; c <= 4; c++ {
			if RevolveAdvances(l, c) > RevolveAdvances(l, c-1) {
				t.Fatalf("rev not monotone in slots at l=%d c=%d", l, c)
			}
			if RevolveAdvances(l-1, c) > RevolveAdvances(l, c) {
				t.Fatalf("rev not monotone in length at l=%d c=%d", l, c)
			}
		}
	}
}

func TestRevolveScheduleMatchesDP(t *testing.T) {
	for _, L := range []int{4, 7, 10} {
		for slots := 1; slots <= 4; slots++ {
			tg := linTarget(t, L)
			p, err := Revolve(tg, slots)
			if err != nil {
				t.Fatalf("L=%d s=%d: %v", L, slots, err)
			}
			// Schedule cost = forward evals (DP) + L adjoint evals, all unit.
			want := float64(RevolveAdvances(L, slots) + L)
			if math.Abs(p.Cost-want) > 1e-9 {
				t.Fatalf("L=%d s=%d: sched cost %v, DP says %v", L, slots, p.Cost, want)
			}
		}
	}
}

func TestRevolveMemoryShrinksWithFewerSlots(t *testing.T) {
	tg := linTarget(t, 12)
	lo, err := Revolve(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Revolve(tg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if lo.PeakBytes >= hi.PeakBytes {
		t.Fatalf("fewer slots should use less memory: s=2 %v vs s=12 %v", lo.PeakBytes, hi.PeakBytes)
	}
	if lo.Cost <= hi.Cost {
		t.Fatalf("fewer slots should cost more: %v vs %v", lo.Cost, hi.Cost)
	}
}

func TestRevolveSweepPareto(t *testing.T) {
	tg := linTarget(t, 10)
	pts, err := RevolveSweep(tg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("sweep too small: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PeakBytes <= pts[i-1].PeakBytes || pts[i].Cost >= pts[i-1].Cost {
			t.Fatalf("sweep not Pareto ordered at %d", i)
		}
	}
}

func TestGreedySweepStrategies(t *testing.T) {
	tg := skipTarget(t, 8)
	for _, name := range []string{"ap-greedy", "linearized-greedy"} {
		pts, err := GreedySweep(tg, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatalf("%s produced no points", name)
		}
		for _, p := range pts {
			if err := p.Sched.Validate(tg.AD.Graph, true); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if _, err := GreedySweep(tg, "chen-greedy", 4); err == nil {
		t.Fatal("chen-greedy sweep must reject non-linear graphs")
	}
	if _, err := GreedySweep(tg, "nope", 4); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestILPDominatesBaselines is the central sanity property of the paper
// (Section 6.2: "the feasible set of our optimal ILP formulation is a
// superset of baseline heuristics"): at any baseline's achieved memory, the
// ILP cost is no worse.
func TestILPDominatesBaselines(t *testing.T) {
	tg := linTarget(t, 6)
	g := tg.AD.Graph
	var pts []Point
	pts = append(pts, CheckpointAll(tg))
	if p, err := ChenSqrtN(tg); err == nil {
		pts = append(pts, p)
	}
	if p, err := Revolve(tg, 2); err == nil {
		pts = append(pts, p)
	}
	pts = append(pts, APSqrtN(tg), LinearizedSqrtN(tg), LinearizedGreedy(tg, 3))
	for _, p := range pts {
		res, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: int64(p.PeakBytes)}, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sched == nil {
			t.Fatalf("%s: ILP infeasible at its own baseline budget %v", p.Strategy, p.PeakBytes)
		}
		if res.Cost > p.Cost+1e-6 {
			t.Fatalf("%s: ILP cost %v worse than baseline %v at budget %v", p.Strategy, res.Cost, p.Cost, p.PeakBytes)
		}
	}
}
