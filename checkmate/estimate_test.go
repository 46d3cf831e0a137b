package checkmate

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
)

// chainWorkload builds a linear training DAG of n unit nodes.
func chainWorkload(t testing.TB, n int) *Workload {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("op%d", i), Cost: 1, Mem: 1})
		if i > 0 {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	wl, err := FromGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// trainingWorkload builds a training-shaped DAG of 2n unit nodes: a forward
// chain and its backward mirror, where each gradient consumes its forward
// twin and the previous gradient. Every forward value lives until its
// gradient runs, so IdealPeak (n+1) lies well above MinBudget (3) and the
// budgets between them need a solver. On chainWorkload the two are equal.
func trainingWorkload(t testing.TB, n int) *Workload {
	t.Helper()
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("f%d", i), Cost: 1, Mem: 1})
		if i > 0 {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	for i := n - 1; i >= 0; i-- {
		grad := g.AddNode(graph.Node{Name: fmt.Sprintf("grad%d", i), Cost: 1, Mem: 1, Backward: true})
		g.MustEdge(graph.NodeID(i), grad)
		if i < n-1 {
			g.MustEdge(grad-1, grad)
		}
	}
	wl, err := FromGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestEstimateSolveCostGrowsWithGraphSize(t *testing.T) {
	opt := SolveOptions{TimeLimit: time.Hour}
	small := trainingWorkload(t, 5)
	large := trainingWorkload(t, 50)
	cs := small.EstimateSolveCost(small.MinBudget(), opt, false)
	cl := large.EstimateSolveCost(large.MinBudget(), opt, false)
	if cl <= cs {
		t.Fatalf("100-node estimate %v not above 10-node estimate %v", cl, cs)
	}
	// n^2.5 scaling: a 10× larger graph should cost orders of magnitude more.
	if cl < 50*cs {
		t.Fatalf("estimate scales too weakly with size: %v vs %v", cl, cs)
	}
}

func TestEstimateSolveCostGrowsWithBudgetTightness(t *testing.T) {
	wl := trainingWorkload(t, 20)
	opt := SolveOptions{TimeLimit: time.Hour}
	loose := wl.EstimateSolveCost(wl.CheckpointAllPeak(), opt, false)
	tight := wl.EstimateSolveCost(wl.MinBudget(), opt, false)
	if tight <= loose {
		t.Fatalf("tight-budget estimate %v not above loose-budget %v", tight, loose)
	}
	mid := wl.EstimateSolveCost((wl.MinBudget()+wl.IdealPeak())/2, opt, false)
	if mid <= loose || mid >= tight {
		t.Fatalf("mid-budget estimate %v not between %v and %v", mid, loose, tight)
	}
}

func TestEstimateSolveCostApproxCheaperThanOptimal(t *testing.T) {
	wl := trainingWorkload(t, 20)
	opt := SolveOptions{TimeLimit: time.Hour}
	budget := (wl.MinBudget() + wl.IdealPeak()) / 2
	optimal := wl.EstimateSolveCost(budget, opt, false)
	apx := wl.EstimateSolveCost(budget, opt, true)
	if apx >= optimal {
		t.Fatalf("approx estimate %v not below optimal estimate %v", apx, optimal)
	}
	// Accepting an optimality gap must not cost more than proving exactness.
	gap := wl.EstimateSolveCost(budget, SolveOptions{TimeLimit: time.Hour, RelGap: 0.05}, false)
	if gap > optimal {
		t.Fatalf("gap-accepting estimate %v above prove-optimal estimate %v", gap, optimal)
	}
}

func TestEstimateSolveCostCappedByTimeLimit(t *testing.T) {
	wl := trainingWorkload(t, 250)
	got := wl.EstimateSolveCost(wl.MinBudget(), SolveOptions{TimeLimit: 100 * time.Millisecond}, false)
	if got > 100 {
		t.Fatalf("estimate %v exceeds the 100 ms time-limit cap", got)
	}
	if got < 1 {
		t.Fatalf("estimate %v below the floor of 1", got)
	}
}
