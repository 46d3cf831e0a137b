package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/milp"
)

func trainChainN(t testing.TB, L int) *graph.Graph {
	t.Helper()
	fwd := graph.New(L)
	for i := 0; i < L; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < L; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

// TestAggregatedAndDisaggregatedAgree: the paper's big-κ linearization (7c)
// and this implementation's disaggregation describe the same integral
// feasible set, so both must reach the same optimum.
func TestAggregatedAndDisaggregatedAgree(t *testing.T) {
	g := trainChainN(t, 6)
	for _, budget := range []int64{5, 6, 8} {
		inst := Instance{G: g, Budget: budget}
		a, err := SolveILP(context.Background(), inst, SolveOptions{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveILP(context.Background(), inst, SolveOptions{TimeLimit: 120 * time.Second, AggregatedFree: true})
		if err != nil {
			t.Fatal(err)
		}
		if (a.Sched == nil) != (b.Sched == nil) {
			t.Fatalf("budget %d: feasibility disagreement", budget)
		}
		if a.Sched == nil {
			continue
		}
		if a.Status == milp.StatusOptimal && b.Status == milp.StatusOptimal &&
			math.Abs(a.Cost-b.Cost) > 1e-6 {
			t.Fatalf("budget %d: disaggregated %v != aggregated %v", budget, a.Cost, b.Cost)
		}
	}
}

// TestDisaggregationTightensRelaxation: the disaggregated LP bound must be
// at least as strong (never weaker) than the paper's aggregated bound.
func TestDisaggregationTightensRelaxation(t *testing.T) {
	g := trainChainN(t, 6)
	inst := Instance{G: g, Budget: 5}
	fd, err := Build(inst, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := Build(inst, BuildOptions{FrontierAdvancing: true, AggregatedFree: true})
	if err != nil {
		t.Fatal(err)
	}
	sd := fd.Prob.LP.Solve(lpOptions())
	sa := fa.Prob.LP.Solve(lpOptions())
	if sd.Status.String() != "optimal" || sa.Status.String() != "optimal" {
		t.Fatalf("LP status %v / %v", sd.Status, sa.Status)
	}
	if fd.TrueCost(sd.Obj) < fa.TrueCost(sa.Obj)-1e-6 {
		t.Fatalf("disaggregated bound %v weaker than aggregated %v", fd.TrueCost(sd.Obj), fa.TrueCost(sa.Obj))
	}
}

// TestCostCapEquation10 verifies the cap constraint: with a cap of exactly
// the ideal cost, the only feasible schedules compute every node once; at
// tight budgets that may be infeasible, and raising the cap restores
// feasibility.
func TestCostCapEquation10(t *testing.T) {
	g := trainChainN(t, 6)
	ideal := g.TotalCost()
	tight := Instance{G: g, Budget: 5}
	// Without a cap the budget is feasible but needs recomputation.
	free, err := SolveILP(context.Background(), tight, SolveOptions{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if free.Sched == nil || free.Cost <= ideal {
		t.Fatalf("expected recomputation at budget 5 (cost %v vs ideal %v)", free.Cost, ideal)
	}
	// Cap at ideal: infeasible (no recomputation allowed, memory too small).
	capped, err := SolveILP(context.Background(), tight, SolveOptions{TimeLimit: 30 * time.Second, CostCap: ideal})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Status != milp.StatusInfeasible {
		t.Fatalf("cap=ideal at tight budget should be infeasible, got %v", capped.Status)
	}
	// Cap at the paper's 2·C_fwd + C_bwd: feasible again.
	var fwdCost float64
	for i := 0; i < g.Len(); i++ {
		if !g.Node(graph.NodeID(i)).Backward {
			fwdCost += g.Node(graph.NodeID(i)).Cost
		}
	}
	cap10 := ideal + fwdCost
	relaxed, err := SolveILP(context.Background(), tight, SolveOptions{TimeLimit: 30 * time.Second, CostCap: cap10})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Sched == nil {
		t.Fatalf("one-extra-forward cap should be feasible at budget 5")
	}
	if relaxed.Cost > cap10+1e-6 {
		t.Fatalf("cost %v exceeds cap %v", relaxed.Cost, cap10)
	}
}

// TestFreeForcedByIntegralRS: with integral R and S fixed via bounds, the LP
// must force every FREE variable to exactly 0 or 1 (the property that lets
// FREE be continuous).
func TestFreeForcedByIntegralRS(t *testing.T) {
	g := trainChainN(t, 5)
	inst := Instance{G: g, Budget: 1 << 30}
	f, err := Build(inst, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Fix R and S to the checkpoint-all schedule.
	ca := CheckpointAll(g)
	n := g.Len()
	for tt := 0; tt < n; tt++ {
		for i := 0; i < n; i++ {
			if j := f.rIdx[tt][i]; j >= 0 {
				v := 0.0
				if ca.R[tt][i] {
					v = 1
				}
				f.Prob.LP.SetBounds(int(j), v, v)
			}
			if j := f.sIdx[tt][i]; j >= 0 {
				v := 0.0
				if ca.S[tt][i] {
					v = 1
				}
				f.Prob.LP.SetBounds(int(j), v, v)
			}
		}
	}
	sol := f.Prob.LP.Solve(lpOptions())
	if sol.Status.String() != "optimal" {
		t.Fatalf("status %v", sol.Status)
	}
	for tt := 0; tt < n; tt++ {
		for ei := range g.Edges() {
			j := f.freeIdx[tt][ei]
			if j < 0 {
				continue
			}
			v := sol.X[j]
			if math.Abs(v) > 1e-6 && math.Abs(v-1) > 1e-6 {
				t.Fatalf("FREE[%d][edge %d] = %v not forced integral", tt, ei, v)
			}
			// Cross-check against the combinatorial definition (5).
			want := 0.0
			if ca.Free[tt][ei] {
				want = 1
			}
			if math.Abs(v-want) > 1e-6 {
				t.Fatalf("FREE[%d][edge %d] = %v, definition says %v", tt, ei, v, want)
			}
		}
	}
}

// TestInjectIncumbentRejectsOverBudget ensures infeasible seeds are refused.
func TestInjectIncumbentRejectsOverBudget(t *testing.T) {
	g := trainChainN(t, 5)
	f, err := Build(Instance{G: g, Budget: 3}, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	ca := CheckpointAll(g) // peak ≫ 3
	if _, err := f.InjectIncumbent(ca); err == nil {
		t.Fatal("over-budget incumbent accepted")
	}
}

// TestScalingInvariance: scaling all costs and memories by constants must
// not change the optimal schedule structure (objective scales accordingly).
func TestScalingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := graph.New(5)
	for i := 0; i < 5; i++ {
		base.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(3))})
	}
	for i := 1; i < 5; i++ {
		base.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	scaled := base.Clone()
	for i := 0; i < 5; i++ {
		scaled.SetCost(graph.NodeID(i), base.Node(graph.NodeID(i)).Cost*1e6)
		scaled.SetMem(graph.NodeID(i), base.Node(graph.NodeID(i)).Mem*(1<<20))
	}
	a, err := SolveILP(context.Background(), Instance{G: base, Budget: 6}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveILP(context.Background(), Instance{G: scaled, Budget: 6 << 20}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status {
		t.Fatalf("status %v vs %v", a.Status, b.Status)
	}
	if a.Sched != nil && math.Abs(a.Cost*1e6-b.Cost) > 1e-3*b.Cost {
		t.Fatalf("scaled cost %v != %v", b.Cost, a.Cost*1e6)
	}
}

// TestStatsReflectFormulationSize sanity-checks the O(|V||E|) size claim.
func TestStatsReflectFormulationSize(t *testing.T) {
	small := trainChainN(t, 4)
	big := trainChainN(t, 8)
	fs, err := Build(Instance{G: small, Budget: 100}, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Build(Instance{G: big, Budget: 100}, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	vs, rs := fs.Stats()
	vb, rb := fb.Stats()
	if vb <= vs || rb <= rs {
		t.Fatal("bigger graph must yield a bigger formulation")
	}
	// Doubling L quadruples n² terms: expect ≥3x growth.
	if float64(vb) < 3*float64(vs) {
		t.Fatalf("vars grew too slowly: %d -> %d", vs, vb)
	}
}

// lpOptions returns default simplex options for direct LP calls in tests.
func lpOptions() lp.Options { return lp.Options{} }
