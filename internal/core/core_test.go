package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/milp"
)

// chain builds a linear forward+backward-style chain of n nodes with the
// given per-node costs and memories (single path graph).
func chain(n int, cost float64, mem int64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: "v", Cost: cost, Mem: mem})
	}
	for i := 1; i < n; i++ {
		g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	return g
}

func TestCheckpointAllValidAndCost(t *testing.T) {
	g := chain(6, 1, 1)
	s := CheckpointAll(g)
	if err := s.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(g); got != 6 {
		t.Fatalf("cost=%v want 6 (each node once)", got)
	}
	if got := s.Recomputations(); got != 0 {
		t.Fatalf("recomputations=%d", got)
	}
	// Peak memory of checkpoint-all on a unit chain: all n values resident
	// in the last stage.
	if p := s.Peak(g, 0); p != 6 {
		t.Fatalf("peak=%v want 6", p)
	}
	if err := s.CheckNoDoubleFree(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMinRRepairsViolations(t *testing.T) {
	g := chain(5, 1, 1)
	n := g.Len()
	// Checkpoint nothing: every stage must recompute the whole prefix.
	S := boolMat(n, n)
	s := SolveMinR(g, S)
	if err := s.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	// Stage t must compute 0..t: cost = sum_{t} (t+1) = n(n+1)/2.
	if got := s.Cost(g); got != 15 {
		t.Fatalf("cost=%v want 15", got)
	}
}

func TestSolveMinRWithFullCheckpoints(t *testing.T) {
	g := chain(5, 1, 1)
	n := g.Len()
	S := boolMat(n, n)
	for tt := 1; tt < n; tt++ {
		for i := 0; i < tt; i++ {
			S[tt][i] = true
		}
	}
	s := SolveMinR(g, S)
	if err := s.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if got := s.Cost(g); got != 5 {
		t.Fatalf("cost=%v want 5 (no recomputation needed)", got)
	}
}

func TestBuildStatsAndSolveUnlimitedBudget(t *testing.T) {
	g := chain(5, 2, 10)
	inst := Instance{G: g, Budget: 1 << 40, Overhead: 0}
	res, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	// With unlimited memory the optimum is checkpoint-all: each node once.
	if math.Abs(res.Cost-10) > 1e-6 {
		t.Fatalf("cost=%v want 10", res.Cost)
	}
	if res.Vars == 0 || res.Rows == 0 {
		t.Fatal("stats empty")
	}
}

func TestSolveILPTightBudgetChain(t *testing.T) {
	// Unit chain of 6, budget 3, no overhead: feasible but requires
	// rematerialization. Verify optimality against brute force.
	g := chain(6, 1, 1)
	inst := Instance{G: g, Budget: 3, Overhead: 0}
	res, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	if err := res.Sched.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if peak := res.Sched.Peak(g, 0); peak > 3 {
		t.Fatalf("peak=%v exceeds budget", peak)
	}
	want := bruteForceOptimal(g, 3, 0)
	if math.Abs(res.Cost-want) > 1e-6 {
		t.Fatalf("ILP cost=%v, brute force=%v", res.Cost, want)
	}
}

func TestSolveILPInfeasibleBudget(t *testing.T) {
	g := chain(4, 1, 10)
	// Budget below a single node + dependency: infeasible.
	inst := Instance{G: g, Budget: 15, Overhead: 0}
	res, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusInfeasible {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestSolveILPRespectsOverhead(t *testing.T) {
	g := chain(4, 1, 1)
	// Budget 4 with overhead 2 behaves like budget 2 without.
	withOv, err := SolveILP(context.Background(), Instance{G: g, Budget: 4, Overhead: 2}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noOv, err := SolveILP(context.Background(), Instance{G: g, Budget: 2, Overhead: 0}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if withOv.Status != noOv.Status {
		t.Fatalf("status mismatch: %v vs %v", withOv.Status, noOv.Status)
	}
	if withOv.Status == milp.StatusOptimal && math.Abs(withOv.Cost-noOv.Cost) > 1e-6 {
		t.Fatalf("cost %v vs %v", withOv.Cost, noOv.Cost)
	}
}

// bruteForceOptimal exhaustively searches frontier-advancing schedules of a
// small graph via depth-first search over per-stage decisions, returning the
// optimal cost. Exponential; only for tiny n.
func bruteForceOptimal(g *graph.Graph, budget, overhead int64) float64 {
	n := g.Len()
	best := math.Inf(1)
	// State per stage: which values are resident at stage start (S row).
	// Enumerate per stage: any subset of "available" values may be kept;
	// then R row is forced minimal by SolveMinR-like completion... To keep
	// the search exact over R too, enumerate R rows directly as any superset
	// of required computations. For tiny n we enumerate S rows only and use
	// minimal R completion per stage, which is exact for chains: any extra
	// computation only adds cost and memory.
	var rec func(t int, avail uint32, S [][]bool, costSoFar float64)
	rec = func(t int, avail uint32, S [][]bool, costSoFar float64) {
		if costSoFar >= best {
			return
		}
		if t == n {
			s := SolveMinR(g, S)
			if s.Peak(g, overhead) <= float64(budget) {
				c := s.Cost(g)
				if c < best {
					best = c
				}
			}
			return
		}
		if t == 0 {
			rec(1, 1, S, costSoFar)
			return
		}
		// Choose the subset of previously-available values to retain.
		prev := avail
		subs := prev
		for {
			for i := 0; i < t; i++ {
				S[t][i] = subs&(1<<i) != 0
			}
			rec(t+1, subs|(1<<t), S, costSoFar)
			for i := 0; i < t; i++ {
				S[t][i] = false
			}
			if subs == 0 {
				break
			}
			subs = (subs - 1) & prev
		}
	}
	rec(0, 0, boolMat(n, n), 0)
	return best
}

func TestBruteForceAgreesOnRandomTinyGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force comparison is slow")
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(2)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{Cost: float64(1 + rng.Intn(4)), Mem: int64(1 + rng.Intn(3))})
		}
		for i := 1; i < n; i++ {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
			if i >= 2 && rng.Float64() < 0.3 {
				g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
			}
		}
		maxPeak := CheckpointAll(g).Peak(g, 0)
		budget := int64(MinBudgetLowerBound(g, 0)) + rng.Int63n(int64(maxPeak))
		res, err := SolveILP(context.Background(), Instance{G: g, Budget: budget, Overhead: 0}, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceOptimal(g, budget, 0)
		if res.Status == milp.StatusInfeasible {
			if !math.IsInf(want, 1) {
				t.Fatalf("trial %d: ILP infeasible but brute force found cost %v (budget %d)", trial, want, budget)
			}
			continue
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("trial %d: status=%v", trial, res.Status)
		}
		if math.Abs(res.Cost-want) > 1e-6 {
			t.Fatalf("trial %d: ILP=%v brute=%v (budget %d)\n%v", trial, res.Cost, want, budget, res.Sched.R)
		}
	}
}

func TestRelaxationLowerBounds(t *testing.T) {
	g := chain(6, 1, 1)
	inst := Instance{G: g, Budget: 3, Overhead: 0}
	_, lb, err := SolveRelaxation(context.Background(), inst, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lb > res.Cost+1e-6 {
		t.Fatalf("LP bound %v exceeds ILP optimum %v", lb, res.Cost)
	}
	if lb < 6-1e-6 {
		t.Fatalf("LP bound %v below trivial bound 6", lb)
	}
}

func TestTwoPhaseRoundFeasibility(t *testing.T) {
	g := chain(6, 1, 1)
	inst := Instance{G: g, Budget: 4, Overhead: 0}
	fs, _, err := SolveRelaxation(context.Background(), inst, false)
	if err != nil {
		t.Fatal(err)
	}
	s := TwoPhaseRound(g, fs, 0.5, nil)
	if err := s.Validate(g, true); err != nil {
		t.Fatalf("rounded schedule invalid: %v", err)
	}
	if err := s.CheckNoDoubleFree(g); err != nil {
		t.Fatal(err)
	}
}

func TestUnpartitionedMatchesPartitionedOptimum(t *testing.T) {
	// Small instance: both forms must reach the same optimal cost
	// (Section 4.6 reports identical objectives, different solve times).
	g := chain(4, 1, 1)
	inst := Instance{G: g, Budget: 2, Overhead: 0}
	part, err := SolveILP(context.Background(), inst, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unpart, err := SolveILP(context.Background(), inst, SolveOptions{Unpartitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if part.Status != milp.StatusOptimal || unpart.Status != milp.StatusOptimal {
		t.Fatalf("status %v / %v", part.Status, unpart.Status)
	}
	if unpart.Cost > part.Cost+1e-6 {
		t.Fatalf("unpartitioned %v worse than partitioned %v", unpart.Cost, part.Cost)
	}
}

// Property: for random graphs and budgets, any optimal schedule satisfies
// Theorem 4.1 (no double deallocation), the budget, and all correctness
// constraints.
func TestSolveILPInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(4))})
		}
		for i := 1; i < n; i++ {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
			if i >= 2 && rng.Float64() < 0.25 {
				g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
			}
		}
		budget := MinBudgetLowerBound(g, 0) + rng.Int63n(10)
		res, err := SolveILP(context.Background(), Instance{G: g, Budget: budget}, SolveOptions{})
		if err != nil {
			return false
		}
		if res.Status == milp.StatusInfeasible {
			return true
		}
		if res.Sched.Validate(g, true) != nil {
			return false
		}
		if res.Sched.CheckNoDoubleFree(g) != nil {
			return false
		}
		return res.Sched.Peak(g, 0) <= float64(budget)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestFromCheckpointSetGradientRetention(t *testing.T) {
	// 3-node chain: keep node 0 only. Gradients: none here (forward-only
	// graph), so only node 0 is retained after computation.
	g := chain(3, 1, 1)
	S := FromCheckpointSet(g, map[graph.NodeID]bool{0: true})
	if !S[1][0] || !S[2][0] {
		t.Fatal("kept node not retained")
	}
	if S[2][1] {
		t.Fatal("unkept node retained")
	}
}

func TestMinBudgetLowerBound(t *testing.T) {
	g := chain(3, 1, 5)
	// Node 2 needs its own 5 plus dep 5 = 10.
	if got := MinBudgetLowerBound(g, 7); got != 17 {
		t.Fatalf("got %d want 17", got)
	}
}
