package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/milp"
	"repro/internal/nets"
	"repro/internal/telemetry"
)

// randomForward builds a random n-node DAG with integer costs and sizes: a
// spine i-1 → i, so there is one sink, plus skip edges that make values
// outlive their next user.
func randomForward(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(6))})
	}
	for i := 1; i < n; i++ {
		g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		if i >= 2 && rng.Float64() < 0.4 {
			g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
		}
	}
	return g
}

// randomTraining differentiates a random n-node forward DAG: every forward
// value lives until its gradient uses it, as in the paper's training graphs.
func randomTraining(t *testing.T, rng *rand.Rand, n int) *graph.Graph {
	t.Helper()
	res, err := autodiff.Differentiate(randomForward(rng, n), autodiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func idealTestGraphs(t *testing.T) []*graph.Graph {
	gs := []*graph.Graph{chain(6, 1, 1), trainChainN(t, 5)}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		gs = append(gs, randomForward(rng, 3+rng.Intn(12)), randomTraining(t, rng, 2+rng.Intn(6)))
	}
	return gs
}

// TestIdealSchedIsValidAndIdeal: the ideal schedule is a frontier-advancing
// schedule that computes every node once, so its cost is Σ C_i to the bit.
func TestIdealSchedIsValidAndIdeal(t *testing.T) {
	for i, g := range idealTestGraphs(t) {
		s := IdealSched(g)
		if err := s.Validate(g, true); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if r := s.Recomputations(); r != 0 {
			t.Fatalf("graph %d: %d recomputations", i, r)
		}
		if got, want := s.Cost(g), g.TotalCost(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("graph %d: cost %v, want Σ C_i = %v", i, got, want)
		}
	}
}

// TestRetentionNeverLowersIdealPeak: keeping any value longer than the
// ideal schedule does — up to checkpoint-all, which keeps every value to the
// end — never lowers the peak. That is why no schedule without
// recomputation fits a budget under IdealSched's peak.
func TestRetentionNeverLowersIdealPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, g := range idealTestGraphs(t) {
		n := g.Len()
		ideal := IdealSched(g)
		peak := ideal.Peak(g, 3)
		if ca := CheckpointAll(g).Peak(g, 3); ca < peak {
			t.Fatalf("graph %d: checkpoint-all peak %v under the ideal peak %v", i, ca, peak)
		}
		for trial := 0; trial < 10; trial++ {
			s := NewSched(n, g.NumEdges())
			for st := range s.R {
				copy(s.R[st], ideal.R[st])
				copy(s.S[st], ideal.S[st])
			}
			// Extend random values' retention to a random later stage.
			for v := 0; v < n-1; v++ {
				if rng.Float64() < 0.5 {
					continue
				}
				last := v + 1 + rng.Intn(n-v-1)
				for st := v + 1; st <= last; st++ {
					s.S[st][v] = true
				}
			}
			s.ComputeFree(g)
			if err := s.Validate(g, true); err != nil {
				t.Fatalf("graph %d: extended schedule invalid: %v", i, err)
			}
			if p := s.Peak(g, 3); p < peak {
				t.Fatalf("graph %d: more retention lowered the peak from %v to %v", i, peak, p)
			}
		}
	}
}

// TestIdealPeakIsTight: on random training graphs, the MILP's optimum at
// IdealPeak is the ideal cost, and one byte under it every schedule
// recomputes something (all costs are positive), or none fits at all.
func TestIdealPeakIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	recomputed := 0
	for trial := 0; trial < 10; trial++ {
		g := randomTraining(t, rng, 2+rng.Intn(3))
		peak := int64(IdealSched(g).Peak(g, 0))
		at, err := SolveILP(context.Background(), Instance{G: g, Budget: peak}, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if at.Status != milp.StatusOptimal || math.Float64bits(at.Cost) != math.Float64bits(g.TotalCost()) {
			t.Fatalf("trial %d: at the ideal peak %d: status %v cost %v, want the ideal %v", trial, peak, at.Status, at.Cost, g.TotalCost())
		}
		under, err := SolveILP(context.Background(), Instance{G: g, Budget: peak - 1}, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if under.Status == milp.StatusInfeasible {
			continue
		}
		if under.Sched == nil || under.Cost <= g.TotalCost() {
			t.Fatalf("trial %d: one byte under the ideal peak %d: status %v cost %v, want more than the ideal %v",
				trial, peak, under.Status, under.Cost, g.TotalCost())
		}
		recomputed++
	}
	if recomputed == 0 {
		t.Fatal("every budget under the ideal peak was infeasible; the check saw no schedule")
	}
}

// linear32 returns linear32's training graph at batch 4 and 12 segments,
// with its overhead.
func linear32(t *testing.T) (*graph.Graph, int64) {
	t.Helper()
	net, err := nets.ByName("linear32", nets.Config{Model: costmodel.NewRoofline(costmodel.V100()), Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := net.Training(autodiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ad.Graph, net.Overhead()
}

// TestSolveILPFitsBudgetWithinTolerance: one byte under linear32's ideal
// peak, rounding a near-integral LP point yields the ideal schedule, one
// byte over budget. SolveILP refuses it and refits with its budget rows
// RoundingBand bytes lower: the schedule it returns fits and recomputes, and
// the bound it reports is one every schedule within the budget respects.
// Its counters cover both searches, and its hooks see one solve.
func TestSolveILPFitsBudgetWithinTolerance(t *testing.T) {
	g, overhead := linear32(t)
	budget := int64(IdealSched(g).Peak(g, overhead)) - 1
	tr := telemetry.NewTrace()
	started, bounds, last := 0, math.Inf(-1), math.Inf(1)
	hooks := ProgressHooks{
		Started: func(int64, int, int) { started++ },
		Incumbent: func(cost, bound float64) {
			if cost >= last || bound > cost {
				t.Errorf("incumbent %v (bound %v) after %v", cost, bound, last)
			}
			last = cost
		},
		Bound: func(b float64) { bounds = math.Max(bounds, b) },
	}
	res, err := SolveILP(telemetry.WithTrace(context.Background(), tr), Instance{G: g, Budget: budget, Overhead: overhead}, SolveOptions{Progress: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched == nil {
		t.Fatalf("no schedule: status %v", res.Status)
	}
	if p := res.Sched.Peak(g, overhead); p > float64(budget) {
		t.Fatalf("schedule peaks at %.0f, over budget %d", p, budget)
	}
	if res.Sched.Recomputations() == 0 {
		t.Fatal("a schedule without recomputation cannot fit under the ideal peak")
	}
	if res.Bound > res.Cost || bounds > res.Bound {
		t.Fatalf("bound %v (reported up to %v) above the cost %v", res.Bound, bounds, res.Cost)
	}
	if res.Status == milp.StatusOptimal && res.Cost-res.Bound > milp.DefaultRelGap*res.Cost {
		t.Fatalf("optimal at cost %v with bound %v", res.Cost, res.Bound)
	}
	if started != 1 || last != res.Cost {
		t.Fatalf("%d started hooks, last incumbent %v; want one, and the cost %v", started, last, res.Cost)
	}
	searches, nodes, rootIters := 0, 0, 0
	for _, sp := range tr.Spans() {
		for _, a := range sp.Attrs {
			switch {
			case sp.Name == "branch_and_bound" && a.Key == "nodes":
				searches++
				nodes += a.Value.(int)
			case sp.Name == "root_lp" && a.Key == "iters":
				rootIters += a.Value.(int)
			}
		}
	}
	if searches != 2 || res.Nodes != nodes || res.Solver.RootIters != int64(rootIters) {
		t.Fatalf("%d searches of %d nodes and %d root iterations; result counts %d nodes and %d root iterations",
			searches, nodes, rootIters, res.Nodes, res.Solver.RootIters)
	}
}

// TestRefitReportsOnlyImprovements: the refit continues the first search
// for the caller's hooks. Handed a first search whose schedule it cannot
// beat, it reports no Started, no incumbent and no bound, and returns that
// schedule under the first search's bound.
func TestRefitReportsOnlyImprovements(t *testing.T) {
	g, overhead := linear32(t)
	inst := Instance{G: g, Budget: int64(IdealSched(g).Peak(g, overhead)) - 1, Overhead: overhead}
	ref, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil || ref.Sched == nil {
		t.Fatalf("reference solve: %v", err)
	}
	f, err := Build(inst, BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	hooks := ProgressHooks{
		Started:   func(int64, int, int) { reported++ },
		Incumbent: func(float64, float64) { reported++ },
		Bound:     func(float64) { reported++ },
	}
	first := &Result{Sched: ref.Sched, Cost: ref.Cost, Bound: ref.Bound, Status: milp.StatusFeasible}
	res, err := refitILP(context.Background(), f, SolveOptions{Progress: hooks}, first, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if reported != 0 || res.Sched != ref.Sched || res.Bound != ref.Bound {
		t.Fatalf("%d hook calls; schedule %p bound %v, want none, %p and %v", reported, res.Sched, res.Bound, ref.Sched, ref.Bound)
	}
}
