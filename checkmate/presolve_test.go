package checkmate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/milp"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// TestPresolveServesIdealSchedule: at budgets the ideal schedule fits, every
// method the presolve covers returns the cost core.SolveILP proves there, to
// the bit, without building a formulation, and says so in its stamps and
// events.
func TestPresolveServesIdealSchedule(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []*Workload{loadTest(t, 8), trainingWorkload(t, 6)} {
		for _, budget := range []int64{wl.IdealPeak(), wl.CheckpointAllPeak()} {
			ref, err := core.SolveILP(ctx, core.Instance{G: wl.Graph, Budget: budget, Overhead: wl.Overhead}, core.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Method{Optimal, Interval, Approx, Anytime, Auto} {
				name := fmt.Sprintf("%d nodes, budget %d, %s", wl.Graph.Len(), budget, m)
				obs := &collectObserver{}
				sched, err := Solve(ctx, Request{Workload: wl, Method: m, Budget: budget, Observer: obs, ProgressInterval: -1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.Float64bits(sched.Cost) != math.Float64bits(ref.Cost) || sched.Overhead() != 1 {
					t.Fatalf("%s: cost %v (overhead %v), SolveILP proves %v", name, sched.Cost, sched.Overhead(), ref.Cost)
				}
				if sched.Optimal != (m != Approx) {
					t.Fatalf("%s: Optimal = %v", name, sched.Optimal)
				}
				want := m
				if m == Anytime || m == Auto {
					want = Optimal
				}
				if sched.Method != want || sched.Degraded {
					t.Fatalf("%s: Method %q degraded %v, want %q undegraded", name, sched.Method, sched.Degraded, want)
				}
				if sched.Solver != (milp.Counters{}) || sched.Nodes != 0 || sched.LPVars != 0 || sched.LPRows != 0 {
					t.Fatalf("%s: solver ran: %+v nodes %d LP %d×%d", name, sched.Solver, sched.Nodes, sched.LPVars, sched.LPRows)
				}
				if sched.PeakBytes > budget || sched.SolveTime <= 0 {
					t.Fatalf("%s: peak %d solve time %v", name, sched.PeakBytes, sched.SolveTime)
				}
				ev := obs.events
				if len(ev) != 3 || ev[0].Kind != EventStarted || ev[1].Kind != EventIncumbent || ev[2].Kind != EventDone {
					t.Fatalf("%s: events %+v, want started, incumbent, done", name, ev)
				}
				if ev[0].Vars != 0 || ev[0].Rows != 0 {
					t.Fatalf("%s: started with a %d×%d program", name, ev[0].Vars, ev[0].Rows)
				}
				if ev[1].Objective != sched.Cost || ev[1].Bound != ev[1].Objective || ev[1].Gap != 0 {
					t.Fatalf("%s: incumbent %+v, want the schedule's cost with gap 0", name, ev[1])
				}
				if ev[2].Schedule != sched {
					t.Fatalf("%s: done does not carry the schedule", name)
				}
			}
		}
	}
}

// TestPresolveTraceSaysIdeal: a presolved solve's trace has no solver span,
// and its solve span carries ideal=true to say why; a searched solve's does
// not. Only the first presolve of a workload lowers the ideal schedule, so
// only its trace holds a plan span.
func TestPresolveTraceSaysIdeal(t *testing.T) {
	wl := loadTest(t, 8)
	for i, tc := range []struct {
		budget      int64
		ideal, plan bool
	}{
		{wl.IdealPeak(), true, true},
		{wl.IdealPeak(), true, false},
		{tightBudget(wl), false, true},
	} {
		tr := telemetry.NewTrace()
		if _, err := Solve(telemetry.WithTrace(context.Background(), tr), Request{Workload: wl, Budget: tc.budget}); err != nil {
			t.Fatal(err)
		}
		ideal, solver, plan := false, false, false
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "solve":
				for _, a := range sp.Attrs {
					ideal = ideal || (a.Key == "ideal" && a.Value == true)
				}
			case "presolve", "branch_and_bound":
				solver = true
			case "plan":
				plan = true
			}
		}
		if ideal != tc.ideal || solver == tc.ideal || plan != tc.plan {
			t.Fatalf("solve %d, budget %d: ideal attribute %v, solver spans %v, plan span %v; want ideal %v, plan %v",
				i, tc.budget, ideal, solver, plan, tc.ideal, tc.plan)
		}
	}
}

// TestIdealPlanPeaksAtIdealPeak: the ideal schedule's plan, as Solve serves
// it, simulates to exactly IdealPeak on every zoo model and on random
// training graphs — the plan and the threshold account memory alike. The
// first presolve of each workload, which lowers the plan into its memo, and
// a later one served from the memo each return what lowering a fresh
// core.IdealSched returns.
func TestIdealPlanPeaksAtIdealPeak(t *testing.T) {
	wls := []*Workload{}
	for _, m := range Models() {
		wl, err := Load(m, Options{Batch: 4, CoarseSegments: 12})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		wls = append(wls, wl)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		wls = append(wls, randomTrainingWorkload(t, rng, 3+rng.Intn(10)))
	}
	for i, wl := range wls {
		peak := wl.IdealPeak()
		sched, err := Solve(context.Background(), Request{Workload: wl, Budget: peak})
		if err != nil {
			t.Fatalf("workload %d (%d nodes): %v", i, wl.Graph.Len(), err)
		}
		if sched.PeakBytes != peak {
			t.Fatalf("workload %d (%d nodes): plan peaks at %d, IdealPeak is %d", i, wl.Graph.Len(), sched.PeakBytes, peak)
		}
		checkFreshIdeal(t, fmt.Sprintf("workload %d (%d nodes), first presolve", i, wl.Graph.Len()), wl, sched)
		hit, err := Solve(context.Background(), Request{Workload: wl, Budget: wl.CheckpointAllPeak()})
		if err != nil {
			t.Fatalf("workload %d (%d nodes), memo hit: %v", i, wl.Graph.Len(), err)
		}
		checkFreshIdeal(t, fmt.Sprintf("workload %d (%d nodes), memo hit", i, wl.Graph.Len()), wl, hit)
	}
}

// randomTrainingWorkload is trainingWorkload with random integer costs and
// sizes and random skip edges in the forward pass, each mirrored by the
// backward pass.
func randomTrainingWorkload(t *testing.T, rng *rand.Rand, n int) *Workload {
	t.Helper()
	g := graph.New(2 * n)
	node := func(name string, bwd bool) graph.NodeID {
		return g.AddNode(graph.Node{Name: name, Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(9)), Backward: bwd})
	}
	for i := 0; i < n; i++ {
		node(fmt.Sprintf("f%d", i), false)
		if i > 0 {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
		if i >= 2 && rng.Float64() < 0.3 {
			g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
		}
	}
	for i := n - 1; i >= 0; i-- {
		grad := node(fmt.Sprintf("grad%d", i), true)
		g.MustEdge(graph.NodeID(i), grad)
		if i < n-1 {
			g.MustEdge(grad-1, grad)
		}
	}
	wl, err := FromGraph(g, int64(rng.Intn(5)))
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestPresolveResultsOwnTheirData: a caller that overwrites the schedule and
// plan one presolve returned changes nothing the next presolve returns.
func TestPresolveResultsOwnTheirData(t *testing.T) {
	wl := trainingWorkload(t, 6)
	req := Request{Workload: wl, Budget: wl.IdealPeak()}
	first, err := Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range [][][]bool{first.Sched.R, first.Sched.S, first.Sched.Free} {
		for _, row := range m {
			for i := range row {
				row[i] = !row[i]
			}
		}
	}
	for i := range first.Plan.Stmts {
		first.Plan.Stmts[i] = schedule.Stmt{Kind: schedule.OpDeallocate, Reg: -1}
	}
	for i := range first.Plan.RegNode {
		first.Plan.RegNode[i] = -1
	}
	first.Plan.NumRegs = 0
	next, err := Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	checkFreshIdeal(t, "after the caller overwrote an earlier result", wl, next)
}

// TestPresolveMemoConcurrent: eight concurrent first presolves of one fresh
// workload all get the ideal schedule, and only one of them lowers it.
func TestPresolveMemoConcurrent(t *testing.T) {
	src := trainingWorkload(t, 12)
	wl := &Workload{Graph: src.Graph, Overhead: src.Overhead}
	budget := src.IdealPeak()
	var wg sync.WaitGroup
	scheds := make([]*Schedule, 8)
	errs := make([]error, len(scheds))
	traces := make([]*telemetry.Trace, len(scheds))
	for i := range scheds {
		traces[i] = telemetry.NewTrace()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := telemetry.WithTrace(context.Background(), traces[i])
			scheds[i], errs[i] = Solve(ctx, Request{Workload: wl, Budget: budget})
		}()
	}
	wg.Wait()
	plans := 0
	for i, sched := range scheds {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		checkFreshIdeal(t, fmt.Sprintf("request %d", i), wl, sched)
		for _, sp := range traces[i].Spans() {
			if sp.Name == "plan" {
				plans++
			}
		}
	}
	if plans != 1 {
		t.Fatalf("%d plan spans across %d concurrent first presolves, want 1", plans, len(scheds))
	}
}

// checkFreshIdeal fails unless sched holds what lowering a fresh
// core.IdealSched of wl gives: the same matrices, plan statements and
// registers, and the same bits of peak, cost and ideal cost.
func checkFreshIdeal(t *testing.T, name string, wl *Workload, sched *Schedule) {
	t.Helper()
	g := wl.Graph
	s := core.IdealSched(g)
	plan, err := schedule.Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	plan = schedule.MoveDeallocationsEarlier(g, plan)
	sim, err := schedule.Simulate(g, plan, wl.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	got := sched.Sched
	if got.N != s.N || !reflect.DeepEqual(got.R, s.R) || !reflect.DeepEqual(got.S, s.S) || !reflect.DeepEqual(got.Free, s.Free) {
		t.Fatalf("%s: R, S or FREE differs from a fresh IdealSched", name)
	}
	if !reflect.DeepEqual(sched.Plan.Stmts, plan.Stmts) || sched.Plan.NumRegs != plan.NumRegs || !reflect.DeepEqual(sched.Plan.RegNode, plan.RegNode) {
		t.Fatalf("%s: plan differs from a fresh lowering", name)
	}
	if sched.PeakBytes != sim.PeakBytes ||
		math.Float64bits(sched.Cost) != math.Float64bits(s.Cost(g)) ||
		math.Float64bits(sched.IdealCost) != math.Float64bits(g.TotalCost()) {
		t.Fatalf("%s: peak %d, cost %v, ideal cost %v; a fresh lowering gives %d, %v, %v",
			name, sched.PeakBytes, sched.Cost, sched.IdealCost, sim.PeakBytes, s.Cost(g), g.TotalCost())
	}
}

// TestPresolveLeavesOtherPathsAlone: Unpartitioned solves and baselines run
// their own paths at budgets the ideal schedule fits — without (8a) the
// ideal cost is no lower bound, and a baseline is its heuristic.
func TestPresolveLeavesOtherPathsAlone(t *testing.T) {
	ctx := context.Background()
	small := trainingWorkload(t, 3)
	sched, err := Solve(ctx, Request{Workload: small, Budget: small.IdealPeak(), Unpartitioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if sched.LPVars == 0 || sched.Nodes == 0 {
		t.Fatalf("Unpartitioned request presolved: %d LP vars, %d nodes", sched.LPVars, sched.Nodes)
	}
	wl := loadTest(t, 8)
	base, err := Solve(ctx, Request{Workload: wl, Method: Baseline, Baseline: "ap-sqrt(n)", Budget: wl.CheckpointAllPeak()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Method != Baseline || base.Optimal {
		t.Fatalf("baseline request: Method %q Optimal %v", base.Method, base.Optimal)
	}
	ideal, err := Solve(ctx, Request{Workload: wl, Budget: wl.CheckpointAllPeak()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cost <= ideal.Cost {
		t.Fatalf("ap-sqrt(n) cost %v is not above the ideal %v: the baseline was not run", base.Cost, ideal.Cost)
	}
}

// TestPresolveHonorsLimits: the presolve checks the caller's context and
// the request's time limit before it serves, as a baseline does.
func TestPresolveHonorsLimits(t *testing.T) {
	wl := loadTest(t, 8)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{Optimal, Interval, Approx, Anytime} {
		req := Request{Workload: wl, Method: m, Budget: wl.IdealPeak()}
		if _, err := Solve(cancelled, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with a cancelled context: err = %v, want context.Canceled", m, err)
		}
		req.TimeLimit = time.Nanosecond
		if _, err := Solve(context.Background(), req); !errors.Is(err, ErrSolveLimit) {
			t.Fatalf("%s with an expired time limit: err = %v, want ErrSolveLimit", m, err)
		}
	}
}

// TestPlanOverBudgetRefused: one byte under the ideal peak the ideal
// schedule no longer fits. finish refuses its plan, naming both numbers, and
// so does the presolve's memo, both when it lowers the plan and when it
// serves it again. Optimal and Interval both serve plans within the budget;
// where both claim a proof, they agree on the cost.
func TestPlanOverBudgetRefused(t *testing.T) {
	ctx := context.Background()
	wl, err := Load("linear32", Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	budget := wl.IdealPeak() - 1
	for _, tc := range []struct {
		name   string
		refuse func() (*Schedule, error)
	}{
		{"finish", func() (*Schedule, error) { return wl.finish(ctx, core.IdealSched(wl.Graph), true, budget, nil) }},
		{"memo build", func() (*Schedule, error) { return wl.idealSchedule(ctx, budget) }},
		{"memo hit", func() (*Schedule, error) { return wl.idealSchedule(ctx, budget) }},
	} {
		_, err := tc.refuse()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(budget)) || !strings.Contains(err.Error(), fmt.Sprint(budget+1)) {
			t.Fatalf("%s: ideal plan at budget %d: err = %v, want a refusal naming %d and %d", tc.name, budget, err, budget+1, budget)
		}
	}
	var proven []*Schedule
	for _, m := range []Method{Optimal, Interval} {
		sched, err := Solve(ctx, Request{Workload: wl, Method: m, Budget: budget, TimeLimit: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if sched.PeakBytes > budget {
			t.Fatalf("%s: plan peaks at %d, over budget %d", m, sched.PeakBytes, budget)
		}
		if sched.Sched.Recomputations() == 0 {
			t.Fatalf("%s: no recomputation fits under the ideal peak", m)
		}
		if sched.Optimal {
			proven = append(proven, sched)
		}
	}
	if len(proven) == 2 && math.Abs(proven[0].Cost-proven[1].Cost) > 1e-9*proven[0].Cost {
		t.Fatalf("proven optima disagree: %v vs %v", proven[0].Cost, proven[1].Cost)
	}
}

// TestEstimateFloorAtIdealPeak: admission and Auto see a presolvable
// request as the cheapest there is, and only those.
func TestEstimateFloorAtIdealPeak(t *testing.T) {
	opt := SolveOptions{TimeLimit: time.Hour}
	for _, wl := range []*Workload{loadTest(t, 8), trainingWorkload(t, 40)} {
		ideal := wl.IdealPeak()
		for _, mi := range Methods() {
			m := mi.Method
			if est := wl.EstimateSolveCostFor(m, ideal, opt); est != 1 {
				t.Errorf("%d nodes, %s: estimate %v at the ideal peak, want 1", wl.Graph.Len(), m, est)
			}
			// Below the threshold the estimate is the search's, as it is
			// for an Unpartitioned request, which the presolve never serves.
			unpart := opt
			unpart.Unpartitioned = true
			below, search := wl.EstimateSolveCostFor(m, ideal-1, opt), wl.EstimateSolveCostFor(m, ideal-1, unpart)
			if below <= 1 || below != search {
				t.Errorf("%d nodes, %s: estimate %v one byte under the ideal peak, want the search's %v", wl.Graph.Len(), m, below, search)
			}
			if est := wl.EstimateSolveCostFor(m, ideal, unpart); est <= 1 {
				t.Errorf("%d nodes, %s: Unpartitioned estimate %v at the ideal peak", wl.Graph.Len(), m, est)
			}
		}
	}
}

// TestAutoPresolvableIgnoresTightDeadline: a 1 ms deadline does not send a
// presolvable request to the Anytime ladder; Auto picks by graph size.
func TestAutoPresolvableIgnoresTightDeadline(t *testing.T) {
	for _, tc := range []struct {
		wl   *Workload
		want Method
	}{
		{trainingWorkload(t, 20), Optimal},
		{trainingWorkload(t, 200), Interval},
	} {
		req := Request{Workload: tc.wl, Method: Auto, Budget: tc.wl.IdealPeak(), TimeLimit: time.Millisecond}
		if got := req.Resolve(); got != tc.want {
			t.Fatalf("%d nodes: resolved %q, want %q", tc.wl.Graph.Len(), got, tc.want)
		}
		req.Budget--
		if got := req.Resolve(); got != Anytime {
			t.Fatalf("%d nodes, one byte under the ideal peak: resolved %q, want %q", tc.wl.Graph.Len(), got, Anytime)
		}
	}
}

// TestSolveEventsHoldInRoundingBand: one byte under linear32's ideal peak
// the MILP's first search meets a rounded schedule over the budget and
// refits (core.SolveILP). The lossless event stream still describes one
// solve: one Started, incumbents that never regress and end at the returned
// cost, and bounds that never exceed it. The same holds for a sweep point
// there, after a warm-started point.
func TestSolveEventsHoldInRoundingBand(t *testing.T) {
	wl, err := Load("linear32", Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	budget := wl.IdealPeak() - 1
	obs := &collectObserver{}
	sched, err := Solve(context.Background(), Request{Workload: wl, Budget: budget, TimeLimit: time.Minute, ProgressInterval: -1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.events
	if last := ev[len(ev)-1]; last.Kind != EventDone || last.Schedule != sched {
		t.Fatalf("stream does not end with done carrying the schedule: %+v", last)
	}
	checkSolveEvents(t, "optimal", ev[:len(ev)-1], sched)

	obs = &collectObserver{}
	budgets := []int64{wl.CheckpointAllPeak(), budget}
	if _, err := Solve(context.Background(), Request{Workload: wl, Budgets: budgets, TimeLimit: time.Minute, ProgressInterval: -1, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	points, from := 0, 0
	for i, e := range obs.events {
		if e.Kind != EventSweepPoint {
			continue
		}
		if e.Point.Schedule == nil {
			t.Fatalf("sweep point at %d: %v", e.Point.Budget, e.Point.Err)
		}
		checkSolveEvents(t, fmt.Sprintf("sweep point at %d", e.Point.Budget), obs.events[from:i], e.Point.Schedule)
		points, from = points+1, i+1
	}
	if points != len(budgets) {
		t.Fatalf("%d sweep points for %d budgets", points, len(budgets))
	}
}

// checkSolveEvents checks one solve's events, from Started up to its
// terminal event, against the schedule the solve returned.
func checkSolveEvents(t *testing.T, name string, ev []Event, sched *Schedule) {
	t.Helper()
	if sched.PeakBytes > ev[0].Budget {
		t.Fatalf("%s: plan peaks at %d, over budget %d", name, sched.PeakBytes, ev[0].Budget)
	}
	if ev[0].Kind != EventStarted {
		t.Fatalf("%s: first event %q, want started", name, ev[0].Kind)
	}
	lastObj, lastBound, incumbents := math.Inf(1), math.Inf(-1), 0
	slack := 1e-9 * sched.Cost
	for _, e := range ev[1:] {
		switch e.Kind {
		case EventIncumbent:
			incumbents++
			if e.Objective > lastObj {
				t.Fatalf("%s: incumbent objective regressed: %v after %v", name, e.Objective, lastObj)
			}
			lastObj = e.Objective
			if e.Bound > sched.Cost+slack {
				t.Fatalf("%s: incumbent carries bound %v above the returned cost %v", name, e.Bound, sched.Cost)
			}
		case EventBound:
			if e.Bound < lastBound || e.Bound > sched.Cost+slack {
				t.Fatalf("%s: bound %v after %v, returned cost %v", name, e.Bound, lastBound, sched.Cost)
			}
			lastBound = e.Bound
		default:
			t.Fatalf("%s: unexpected %q event inside the solve", name, e.Kind)
		}
	}
	if incumbents == 0 || lastObj != sched.Cost {
		t.Fatalf("%s: %d incumbents, the last at %v; want the returned cost %v", name, incumbents, lastObj, sched.Cost)
	}
}

// TestIdealPeakFollowsWorkload: IdealPeak, CheckpointAllPeak and the
// presolve's ideal plan are computed once per workload, and again when its
// Graph or Overhead changes.
func TestIdealPeakFollowsWorkload(t *testing.T) {
	wl := trainingWorkload(t, 6)
	both := func(w *Workload) [2]int64 { return [2]int64{w.IdealPeak(), w.CheckpointAllPeak()} }
	presolve := func(name string) {
		t.Helper()
		sched, err := Solve(context.Background(), Request{Workload: wl, Budget: wl.IdealPeak()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkFreshIdeal(t, name, wl, sched)
	}
	want := both(wl)
	if want[0] > want[1] {
		t.Fatalf("IdealPeak %d above CheckpointAllPeak %d", want[0], want[1])
	}
	if allocs := testing.AllocsPerRun(10, func() { both(wl) }); allocs != 0 {
		t.Fatalf("known peaks cost %v allocations per call, want none", allocs)
	}
	presolve("as built")
	wl.Overhead += 100
	if got := both(wl); got != [2]int64{want[0] + 100, want[1] + 100} {
		t.Fatalf("with 100 more bytes of overhead: peaks %v, want %v + 100", got, want)
	}
	presolve("with 100 more bytes of overhead")
	other := trainingWorkload(t, 9)
	wl.Graph = other.Graph
	if got, want := both(wl), both(other); got != [2]int64{want[0] + 100, want[1] + 100} {
		t.Fatalf("on another graph: peaks %v, want %v + 100", got, want)
	}
	presolve("on another graph")
}
