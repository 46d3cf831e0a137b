// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per artifact; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results), plus
// microbenchmarks of the pipeline stages.
//
// The per-figure benchmarks use a reduced Scale so the full suite finishes
// in minutes; run cmd/checkmate-bench for the full-scale artifacts.
package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/approx"
	"repro/internal/autodiff"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gradaccum"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lp"
	"repro/internal/nets"
	"repro/internal/offload"
	"repro/internal/schedule"
	"repro/internal/service"
	serviceapi "repro/internal/service/api"
	serviceclient "repro/internal/service/client"
)

// benchScale keeps a single benchmark iteration to a few seconds.
func benchScale() experiments.Scale {
	return experiments.Scale{Segments: 8, BudgetPoints: 3, TimeLimit: 15 * time.Second, RelGap: 0.05}
}

func BenchmarkFig1MemoryTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1(context.Background(), io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3MemoryBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig3(io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1StrategyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func benchFig5(b *testing.B, model string, batch int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5(context.Background(), io.Discard, model, batch, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// Reproduction check: wherever both are feasible, the ILP overhead
		// must not exceed any baseline's (Section 6.2: superset feasible
		// set).
		best := map[float64]float64{}
		for _, p := range pts {
			if p.Strategy == "checkmate-ilp" && p.Feasible {
				best[p.BudgetGB] = p.Overhead
			}
		}
		for _, p := range pts {
			if p.Strategy == "checkmate-ilp" || !p.Feasible {
				continue
			}
			if ilp, ok := best[p.BudgetGB]; ok && ilp > p.Overhead*1.05+1e-9 {
				b.Fatalf("%s beats the ILP at %.2f GB: %.3f vs %.3f", p.Strategy, p.BudgetGB, p.Overhead, ilp)
			}
		}
	}
}

func BenchmarkFig5VGG16(b *testing.B)     { benchFig5(b, "vgg16", 8) }
func BenchmarkFig5MobileNet(b *testing.B) { benchFig5(b, "mobilenet", 16) }
func BenchmarkFig5UNet(b *testing.B)      { benchFig5(b, "unet", 2) }

func BenchmarkFig6MaxBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(context.Background(), io.Discard, []string{"mobilenet"}, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		if r.Checkmate < r.CheckpointAll {
			b.Fatalf("checkmate max batch %d below checkpoint-all %d", r.Checkmate, r.CheckpointAll)
		}
	}
}

func BenchmarkTable2ApproxRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), io.Discard, []string{"mobilenet", "vgg16"}, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !math.IsNaN(r.TwoPhase) && r.TwoPhase < 1-1e-9 {
				b.Fatalf("%s: two-phase ratio %.3f below 1 (impossible)", r.Model, r.TwoPhase)
			}
		}
	}
}

func BenchmarkFig7ScheduleViz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig7(context.Background(), io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Rounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig8(context.Background(), io.Discard, []string{"vgg16"}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixAIntegralityGap(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AppendixA(context.Background(), io.Discard, sc)
		if err != nil {
			b.Fatal(err)
		}
		// Reproduction check: partitioning must tighten the relaxation.
		if !math.IsNaN(res.UnpartGap) && !math.IsNaN(res.PartGap) && res.UnpartGap < res.PartGap {
			b.Fatalf("partitioned gap %.2f not tighter than unpartitioned %.2f", res.PartGap, res.UnpartGap)
		}
	}
}

// ---- Microbenchmarks of the pipeline stages ----

func trainGraph(b *testing.B, layers int) *graph.Graph {
	b.Helper()
	fwd := graph.New(layers)
	for i := 0; i < layers; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < layers; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.Graph
}

func BenchmarkMILPBuild(b *testing.B) {
	g := trainGraph(b, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(core.Instance{G: g, Budget: 8}, core.BuildOptions{FrontierAdvancing: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPRelaxation(b *testing.B) {
	g := trainGraph(b, 10)
	f, err := core.Build(core.Instance{G: g, Budget: 8}, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := f.Prob.LP.Solve(lp.Options{})
		if sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkILPSolve(b *testing.B) {
	g := trainGraph(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: 6}, core.SolveOptions{TimeLimit: 30 * time.Second})
		if err != nil || res.Sched == nil {
			b.Fatalf("err=%v", err)
		}
	}
}

func BenchmarkTwoPhaseRounding(b *testing.B) {
	g := trainGraph(b, 10)
	inst := core.Instance{G: g, Budget: 8}
	fs, _, err := core.SolveRelaxation(context.Background(), inst, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.TwoPhaseRound(g, fs, 0.5, nil)
		if s == nil {
			b.Fatal("nil schedule")
		}
	}
}

func BenchmarkApproxEndToEnd(b *testing.B) {
	g := trainGraph(b, 10)
	inst := core.Instance{G: g, Budget: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Solve(context.Background(), inst, approx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineRevolve(b *testing.B) {
	fwd := graph.New(24)
	for i := 0; i < 24; i++ {
		fwd.AddNode(graph.Node{Cost: 1, Mem: 1})
	}
	for i := 1; i < 24; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	ad, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		b.Fatal(err)
	}
	tg := &baselines.Target{AD: ad, Fwd: fwd}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.Revolve(tg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanGeneration(b *testing.B) {
	g := trainGraph(b, 16)
	s := core.CheckpointAll(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Generate(g, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSimulation(b *testing.B) {
	g := trainGraph(b, 16)
	s := core.CheckpointAll(g)
	p, err := schedule.Generate(g, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Simulate(g, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresolve times a Solve that the presolve serves: at the
// checkpoint-all peak no solver runs (the zoo's models at batch 4 with 12
// segments). hit solves one workload over and over, so after the first
// solve each is the budget check and a copy of the memoized plan. build
// solves a fresh Workload each time, so each also computes both peaks and
// lowers, hoists and simulates the ideal schedule.
func BenchmarkPresolve(b *testing.B) {
	for _, model := range []string{"vgg16", "resnet50"} {
		b.Run(model, func(b *testing.B) {
			wl, err := checkmate.Load(model, checkmate.Options{Batch: 4, CoarseSegments: 12})
			if err != nil {
				b.Fatal(err)
			}
			budget := wl.CheckpointAllPeak()
			b.Run("hit", func(b *testing.B) {
				req := checkmate.Request{Workload: wl, Budget: budget}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := checkmate.Solve(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("build", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					req := checkmate.Request{Workload: &checkmate.Workload{Graph: wl.Graph, Overhead: wl.Overhead}, Budget: budget}
					if _, err := checkmate.Solve(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkIntervalSearch times the Interval layer alone, run to its proof
// on the zoo's tight instances: unet, transformer and resnet50 at batch 4
// and 12 segments, 30% of the way from MinBudget to CheckpointAllPeak, under
// a 60 s limit. Nodes are reported beside the time; they do not depend on
// machine speed.
func BenchmarkIntervalSearch(b *testing.B) {
	for _, model := range []string{"unet", "transformer", "resnet50"} {
		b.Run(model, func(b *testing.B) {
			wl, err := checkmate.Load(model, checkmate.Options{Batch: 4, CoarseSegments: 12})
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
			inst := core.Instance{G: wl.Graph, Budget: lo + int64(0.3*float64(hi-lo)), Overhead: wl.Overhead}
			var res *interval.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = interval.Solve(context.Background(), inst, interval.Options{TimeLimit: time.Minute}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Nodes), "nodes")
		})
	}
}

func BenchmarkTensorVMStep(b *testing.B) {
	mlp := exec.NewMLP([]int{32, 64, 64, 10}, 16, 3)
	m := mlp.Machine()
	s := core.CheckpointAll(m.G)
	p, err := schedule.Generate(m.G, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelZooBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range nets.Names() {
			if _, err := checkmate.Load(name, checkmate.Options{Batch: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServiceSolve measures the planning service's request paths
// through the client: "miss" pays for a full MILP solve per request
// (distinct budgets defeat the cache), and the three hit benchmarks measure
// the fingerprint-keyed LRU fast path the service exists to provide, once
// per solve-plane answer: "hit" a blocking solve, "stream-hit" the same solve
// over SSE and "sweep-hit" a three-point blocking sweep. The stream and sweep
// hits ask for mobilenet at batch 4 and 12 segments, as perfbench's serve
// workloads do.
func BenchmarkServiceSolve(b *testing.B) {
	g := trainGraph(b, 10)
	spec := serviceapi.GraphSpecOf(g, 0)
	srv, err := service.New(service.Config{Workers: 2, CacheCap: 4096, DefaultTimeLimit: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := serviceclient.New(ts.URL, nil)
	ctx := context.Background()

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Vary the budget so every request is a distinct cache key.
			if _, err := c.Solve(ctx, serviceapi.SolveRequest{Graph: spec, Budget: int64(8 + i%4), NoCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		req := serviceapi.SolveRequest{Graph: spec, Budget: 8}
		if _, err := c.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Solve(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})

	wl, err := checkmate.Load("mobilenet", checkmate.Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	sweep := serviceapi.SweepRequest{
		Model: "mobilenet", Batch: 4, CoarseSegments: 12, Method: string(checkmate.Interval),
		Budgets: []int64{lo + (hi-lo)*5/10, lo + (hi-lo)*6/10, lo + (hi-lo)*7/10},
	}
	if _, err := c.Sweep(ctx, sweep); err != nil {
		b.Fatal(err)
	}
	b.Run("stream-hit", func(b *testing.B) {
		req := serviceapi.SolveRequest{
			Model: sweep.Model, Batch: sweep.Batch, CoarseSegments: sweep.CoarseSegments,
			Method: sweep.Method, Budget: sweep.Budgets[0],
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.SolveStream(ctx, req, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
	b.Run("sweep-hit", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Sweep(ctx, sweep)
			if err != nil {
				b.Fatal(err)
			}
			for _, pt := range resp.Points {
				if !pt.Cached {
					b.Fatal("expected a cache hit at every point")
				}
			}
		}
	})
}

// BenchmarkMILPWarmStart compares branch-and-bound with dual-simplex basis
// inheritance (the default) against cold two-phase solves at every node.
// The interesting metric is simplex iterations per node: warm-started nodes
// reoptimize from the parent basis in a handful of dual pivots.
func BenchmarkMILPWarmStart(b *testing.B) {
	g := trainGraph(b, 10)
	minB := core.MinBudgetLowerBound(g, 0)
	peak := int64(core.CheckpointAll(g).Peak(g, 0))
	budget := minB + (peak-minB)/5 // tight budget => real search tree
	for _, mode := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{
					TimeLimit: 60 * time.Second, DisableRounding: true, ColdStart: mode.cold,
				})
				if err != nil || res.Sched == nil {
					b.Fatalf("err=%v", err)
				}
				b.ReportMetric(float64(res.Solver.SimplexIters)/float64(res.Nodes), "iters/node")
				b.ReportMetric(float64(res.Nodes), "bbnodes")
			}
		})
	}
}

// BenchmarkSweepWarmStart measures the budget-sweep fast path: consecutive
// solves differ only in the budget RHS, so SweepILP threads the root basis
// (and incumbent) between points instead of cold-solving each one.
func BenchmarkSweepWarmStart(b *testing.B) {
	g := trainGraph(b, 10)
	minB := core.MinBudgetLowerBound(g, 0)
	peak := int64(core.CheckpointAll(g).Peak(g, 0))
	budgets := make([]int64, 5)
	for i := range budgets {
		budgets[i] = minB + (peak-minB)*int64(i+1)/int64(len(budgets))
	}
	opt := core.SolveOptions{TimeLimit: 60 * time.Second, RelGap: 0.01}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SweepILP(context.Background(), core.Instance{G: g}, budgets, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, budget := range budgets {
				o := opt
				o.ColdStart = true
				if _, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: budget}, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkParallelBB measures tree-search scaling across Threads values on
// a branchy instance with the rounding heuristic off.
func BenchmarkParallelBB(b *testing.B) {
	g := trainGraph(b, 10)
	minB := core.MinBudgetLowerBound(g, 0)
	peak := int64(core.CheckpointAll(g).Peak(g, 0))
	budget := minB + (peak-minB)/5
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{
					TimeLimit: 60 * time.Second, DisableRounding: true, Threads: threads,
				})
				if err != nil || res.Sched == nil {
					b.Fatalf("err=%v", err)
				}
				b.ReportMetric(res.Solver.NodesPerSec, "nodes/s")
			}
		})
	}
}

// ---- Ablation benchmarks for design choices (see DESIGN.md) ----

// BenchmarkAblationFreeLinearization compares this implementation's
// disaggregated FREE constraints against the paper's exact aggregated big-κ
// form (7c). The disaggregation must never be slower to prove optimality on
// these instances (it dominates the aggregated relaxation).
func BenchmarkAblationFreeLinearization(b *testing.B) {
	g := trainGraph(b, 8)
	inst := core.Instance{G: g, Budget: 6}
	for _, mode := range []struct {
		name string
		agg  bool
	}{{"disaggregated", false}, {"aggregated-paper", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveILP(context.Background(), inst, core.SolveOptions{
					TimeLimit: 60 * time.Second, AggregatedFree: mode.agg,
				})
				if err != nil || res.Sched == nil {
					b.Fatalf("err=%v", err)
				}
				b.ReportMetric(float64(res.Nodes), "bbnodes")
			}
		})
	}
}

// BenchmarkAblationPricing compares devex pricing against Dantzig's rule on
// the rematerialization LP relaxation.
func BenchmarkAblationPricing(b *testing.B) {
	g := trainGraph(b, 12)
	f, err := core.Build(core.Instance{G: g, Budget: 6}, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		dantzig bool
	}{{"devex", false}, {"dantzig", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol := f.Prob.LP.Solve(lp.Options{Dantzig: mode.dantzig})
				if sol.Status != lp.StatusOptimal {
					b.Fatalf("status %v", sol.Status)
				}
				b.ReportMetric(float64(sol.Iters), "simplex-iters")
			}
		})
	}
}

// BenchmarkAblationPartitioning measures the frontier-advancing speedup of
// Section 4.6 directly (the Appendix A experiment's timing half).
func BenchmarkAblationPartitioning(b *testing.B) {
	g := trainGraph(b, 6)
	inst := core.Instance{G: g, Budget: 5}
	for _, mode := range []struct {
		name   string
		unpart bool
	}{{"partitioned", false}, {"unpartitioned", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveILP(context.Background(), inst, core.SolveOptions{
					TimeLimit: 60 * time.Second, Unpartitioned: mode.unpart,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Nodes), "bbnodes")
			}
		})
	}
}

// BenchmarkOffloadVsRemat prices the paper's Related Work argument: compare
// total iteration time under optimal rematerialization against PCIe
// activation swapping at the same budget, on a V100-costed linear network.
func BenchmarkOffloadVsRemat(b *testing.B) {
	wl, err := checkmate.Load("linear32", checkmate.Options{Batch: 16, CoarseSegments: 12})
	if err != nil {
		b.Fatal(err)
	}
	g := wl.Graph
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	budget := minB + (peak-minB)/5 // tight enough to force swaps/recomputes
	b.Run("offload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := offload.Plan(g, wl.Overhead, budget, offload.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TotalTime*1e3, "iter-ms")
		}
	})
	b.Run("remat-ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.SolveILP(context.Background(), core.Instance{G: g, Budget: budget, Overhead: wl.Overhead},
				core.SolveOptions{TimeLimit: 30 * time.Second, RelGap: 0.05})
			if err != nil || res.Sched == nil {
				b.Fatalf("err=%v", err)
			}
			b.ReportMetric(res.Cost*1e3, "iter-ms")
		}
	})
}

// BenchmarkAlternativesAtBudget compares every memory-reduction family the
// paper discusses — optimal rematerialization, PCIe offloading, and gradient
// accumulation (Section 3, Related Work) — at the same budget on MobileNet.
// Each sub-benchmark reports its achieved iteration-time overhead.
func BenchmarkAlternativesAtBudget(b *testing.B) {
	const model = "mobilenet"
	const batch = 16
	wl, err := checkmate.Load(model, checkmate.Options{Batch: batch, CoarseSegments: 10})
	if err != nil {
		b.Fatal(err)
	}
	ideal := wl.Graph.TotalCost()
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	budget := minB + (peak-minB)/3

	b.Run("remat-ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.SolveILP(context.Background(), core.Instance{G: wl.Graph, Budget: budget, Overhead: wl.Overhead},
				core.SolveOptions{TimeLimit: 30 * time.Second, RelGap: 0.05})
			if err != nil || res.Sched == nil {
				b.Fatalf("err=%v", err)
			}
			b.ReportMetric(res.Cost/ideal, "overhead-x")
		}
	})
	b.Run("offload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := offload.Plan(wl.Graph, wl.Overhead, budget, offload.Options{})
			if err != nil {
				b.Skip("offload infeasible at this budget")
			}
			b.ReportMetric(res.TotalTime/ideal, "overhead-x")
		}
	})
	b.Run("gradaccum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := gradaccum.Plan(model, batch, budget, costmodel.V100())
			if err != nil {
				b.Skip("accumulation infeasible at this budget")
			}
			b.ReportMetric(res.Overhead(), "overhead-x")
		}
	})
}
