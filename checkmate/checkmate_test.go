package checkmate

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/nets"
)

func TestLoadUnknownModel(t *testing.T) {
	if _, err := Load("not-a-model", Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelsListed(t *testing.T) {
	if len(Models()) < 10 {
		t.Fatalf("model registry too small: %v", Models())
	}
}

func TestEndToEndSmallModel(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 2, CoarseSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	if minB >= peak {
		t.Fatalf("degenerate workload: min %d >= peak %d", minB, peak)
	}
	budget := minB + (peak-minB)*2/3
	sched, err := Solve(context.Background(), Request{Workload: wl, Budget: budget, TimeLimit: 30 * time.Second, RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if sched.PeakBytes > budget {
		t.Fatalf("peak %d over budget %d", sched.PeakBytes, budget)
	}
	if sched.Overhead() < 1 {
		t.Fatalf("overhead %v < 1 is impossible", sched.Overhead())
	}
	trace, err := wl.MemoryTrace(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty memory trace")
	}
}

func TestApproxPipeline(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 2, CoarseSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	peak := wl.CheckpointAllPeak()
	sched, err := Solve(context.Background(), Request{Workload: wl, Method: Approx, Budget: peak * 3 / 4})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Fatal("approximation must not claim optimality")
	}
	if sched.PeakBytes > peak*3/4 {
		t.Fatalf("approx peak %d over budget %d", sched.PeakBytes, peak*3/4)
	}
}

func TestInfeasibleBudgetErrors(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 1, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), Request{Workload: wl, Budget: 1, TimeLimit: 10 * time.Second}); err == nil {
		t.Fatal("budget of 1 byte accepted")
	}
}

func TestFromGraphValidation(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{Cost: 1, Mem: 1})
	g.AddNode(graph.Node{Cost: 1, Mem: 1})
	// Two sinks: invalid.
	if _, err := FromGraph(g, 0); err == nil {
		t.Fatal("multi-sink graph accepted")
	}
	g.MustEdge(0, 1)
	wl, err := FromGraph(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if wl.MinBudget() != 7 {
		t.Fatalf("min budget %d want 7", wl.MinBudget())
	}
}

// TestWorkloadBytesBounded: a workload whose memory sums could wrap int64,
// or round in float64, is refused when it is built, as is a negative
// overhead. Up to 2^53 bytes in all, it is accepted.
func TestWorkloadBytesBounded(t *testing.T) {
	nodes := func(mems ...int64) *graph.Graph {
		g := graph.New(len(mems))
		for i, m := range mems {
			g.AddNode(graph.Node{Cost: 1, Mem: m})
			if i > 0 {
				g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
			}
		}
		return g
	}
	// Stage 2 of any schedule holds all three values: 3·2^62 bytes.
	wrap := nodes(1<<62, 1<<62, 1<<62)
	wrap.MustEdge(0, 2)
	if _, err := FromGraph(wrap, 0); err == nil {
		t.Fatal("three nodes of 2^62 bytes accepted")
	}
	if _, err := FromGraph(nodes(1, 1), -1); err == nil {
		t.Fatal("negative overhead accepted")
	}
	if _, err := FromGraph(nodes(1<<52, 1<<52-3), 3); err != nil {
		t.Fatalf("2^53 bytes in all: %v", err)
	}
	if _, err := FromGraph(nodes(1<<52, 1<<52-3), 4); err == nil {
		t.Fatal("2^53 + 1 bytes in all accepted")
	}
	// At this batch vgg16's ideal plan peaks past 2^59 bytes, where float64
	// sums round and the presolve's threshold misses the plan's peak.
	if _, err := Load("vgg16", Options{Batch: 1 << 34, CoarseSegments: 12}); err == nil {
		t.Fatal("vgg16 at batch 2^34 accepted")
	}
}

func TestBaselineTarget(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 1, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := wl.BaselineTarget()
	if err != nil {
		t.Fatal(err)
	}
	if tg.Fwd.Len() == 0 {
		t.Fatal("empty baseline target")
	}
	// FromGraph workloads cannot provide baseline targets.
	g := nets.Shape{}
	_ = g
	raw := graph.New(1)
	raw.AddNode(graph.Node{Cost: 1, Mem: 1})
	wl2, err := FromGraph(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl2.BaselineTarget(); err == nil {
		t.Fatal("baseline target without forward graph accepted")
	}
}

func TestDevicePresetsChangeSchedules(t *testing.T) {
	// Hardware awareness: costs must differ across devices.
	a, err := Load("vgg16", Options{Batch: 2, Device: "v100", CoarseSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("vgg16", Options{Batch: 2, Device: "cpu", CoarseSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.TotalCost() == b.Graph.TotalCost() {
		t.Fatal("v100 and cpu cost models indistinguishable")
	}
}

// TestSolveSweepMatchesPointSolves: the warm-started budget sweep must agree
// with independent per-budget solves on feasibility and optimal cost, and an
// infeasible low budget must be reported per point, not fail the sweep.
func TestSolveSweepMatchesPointSolves(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 1, CoarseSegments: 6})
	if err != nil {
		t.Fatal(err)
	}
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	budgets := []int64{
		minB / 2, // infeasible by construction
		minB + (peak-minB)/4,
		minB + (peak-minB)/2,
		peak,
	}
	const limit = 60 * time.Second
	points := make([]*SweepPoint, len(budgets))
	_, err = Solve(context.Background(), Request{
		Workload: wl, Budgets: budgets, TimeLimit: limit,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventSweepPoint && e.Index >= 0 && e.Index < len(points) {
				points[e.Index] = e.Point
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		if pt == nil || pt.Budget != budgets[i] {
			t.Fatalf("budget %d: sweep point missing or misaligned: %+v", budgets[i], pt)
		}
	}
	if !errors.Is(points[0].Err, ErrInfeasible) {
		t.Fatalf("sub-minimum budget: want ErrInfeasible, got %v", points[0].Err)
	}
	for _, pt := range points[1:] {
		if pt.Err != nil || pt.Schedule == nil {
			t.Fatalf("budget %d: %v", pt.Budget, pt.Err)
		}
		solo, err := Solve(context.Background(), Request{Workload: wl, Budget: pt.Budget, TimeLimit: limit})
		if err != nil {
			t.Fatalf("budget %d solo: %v", pt.Budget, err)
		}
		if math.Abs(pt.Schedule.Cost-solo.Cost) > 1e-6*(1+solo.Cost) {
			t.Fatalf("budget %d: sweep cost %v != solo cost %v", pt.Budget, pt.Schedule.Cost, solo.Cost)
		}
		if pt.Schedule.PeakBytes > pt.Budget {
			t.Fatalf("budget %d: schedule peak %d exceeds budget", pt.Budget, pt.Schedule.PeakBytes)
		}
	}
	// The sweep solves in decreasing budget order; warm starts should be
	// accepted at the later (tighter) points.
	var warm int64
	for _, pt := range points {
		if pt.Schedule != nil {
			warm += pt.Schedule.Solver.WarmHits
		}
	}
	if warm == 0 {
		t.Error("no warm-start hits across the sweep")
	}
}
