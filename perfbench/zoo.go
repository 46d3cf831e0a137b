package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/checkmate"
	"repro/internal/milp"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// The zoo-plan grid is the paper's planning work: every model at a tight and
// a mid budget under every exact or approximate method, solved cold and one
// at a time through checkmate.Solve. It is fixed; the seed does not change it.
const (
	zooBatch    = 4
	zooSegments = 12
	// zooLimit is the per-solve time limit. Every instance either finishes
	// well inside it or cannot finish (seedOutcomes records which), so a
	// run's outcomes do not depend on small changes in machine speed.
	zooLimit     = 5 * time.Second
	zooSetupReps = 5
	// costTol is the relative tolerance of the cross-method cost check.
	costTol = 1e-9
)

var (
	zooModels = []string{"vgg16", "mobilenet", "unet", "transformer", "resnet50"}
	// zooFracs place each budget this share of the way from MinBudget to
	// CheckpointAllPeak: a tight and a mid budget.
	zooFracs   = []float64{0.3, 0.5}
	zooMethods = []checkmate.Method{checkmate.Optimal, checkmate.Interval, checkmate.Approx}
)

type instance struct {
	model  string
	frac   float64
	method checkmate.Method
}

func (in instance) String() string {
	return fmt.Sprintf("%s@%.1f/%s", in.model, in.frac, in.method)
}

// zooInstances lists the grid in the order a pass solves it.
func zooInstances() []instance {
	var out []instance
	for _, m := range zooModels {
		for _, f := range zooFracs {
			for _, me := range zooMethods {
				out = append(out, instance{m, f, me})
			}
		}
	}
	return out
}

// budgetAt places a budget frac of the way from lo (a workload's MinBudget)
// to hi (its CheckpointAllPeak).
func budgetAt(lo, hi int64, frac float64) int64 {
	return lo + int64(frac*float64(hi-lo))
}

func budgetsAt(wl *checkmate.Workload, fracs []float64) []int64 {
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	out := make([]int64, len(fracs))
	for i, f := range fracs {
		out[i] = budgetAt(lo, hi, f)
	}
	return out
}

// zooSolve is one solve of the grid and what the checks need from it.
type zooSolve struct {
	inst    instance
	budget  int64
	wall    time.Duration
	err     error
	planned bool
	optimal bool
	cost    float64
	ovh     float64
	sched   *checkmate.Schedule
	ctr     milp.Counters
	// Traced passes only: the solve's span tree, the last relative gap the
	// observer saw (NaN when none), and the incumbent events it received.
	spans      spanSummary
	gap        float64
	incumbents int
}

func (s *zooSolve) outcome() outcome {
	switch {
	case !s.planned:
		return none
	case s.optimal:
		return proven
	}
	return planned
}

type zooWorkloads struct {
	wls     map[string]*checkmate.Workload
	budgets map[instance]int64
}

// loadZoo builds the grid's workloads and budgets. buildMS receives the
// time spent building the models alone.
func loadZoo() (z *zooWorkloads, buildMS float64, err error) {
	z = &zooWorkloads{budgets: map[instance]int64{}}
	if z.wls, buildMS, err = loadModels(zooModels); err != nil {
		return nil, 0, err
	}
	for _, m := range zooModels {
		budgets := budgetsAt(z.wls[m], zooFracs)
		for i, f := range zooFracs {
			for _, me := range zooMethods {
				z.budgets[instance{m, f, me}] = budgets[i]
			}
		}
	}
	return z, buildMS, nil
}

// loadModels builds each named zoo model (network and autodiff) and returns
// the time that took.
func loadModels(models []string) (map[string]*checkmate.Workload, float64, error) {
	wls := map[string]*checkmate.Workload{}
	start := time.Now()
	for _, m := range models {
		wl, err := checkmate.Load(m, checkmate.Options{Batch: zooBatch, CoarseSegments: zooSegments})
		if err != nil {
			return nil, 0, fmt.Errorf("loading %s: %w", m, err)
		}
		wls[m] = wl
	}
	return wls, ms(time.Since(start)), nil
}

func runZoo(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport()
	var z *zooWorkloads
	var buildMS []float64
	setupS, err := medianSetup(zooSetupReps, func() error {
		var err error
		var build float64
		z, build, err = loadZoo()
		buildMS = append(buildMS, build)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.layer["nets.build_ms"] = quantile(buildMS, 0.5)

	plain := zooWindow(ctx, z, o.seconds, false, rep)
	fillZooE2E(rep, plain)
	if o.trace {
		traced := zooWindow(ctx, z, o.seconds, true, rep)
		fillZooLayers(rep, z, traced)
		rep.layer["telemetry.overhead_ratio"] = plain.opsPerS() / traced.opsPerS()
	}
	return rep, nil
}

type zooWindowResult struct {
	solves []*zooSolve
	passes int
	wall   time.Duration
}

func (w *zooWindowResult) opsPerS() float64 {
	return float64(len(w.solves)) / w.wall.Seconds()
}

// zooWindow solves whole passes of the grid until the window has elapsed,
// checking every plan as it returns and every pass's costs as it ends.
func zooWindow(ctx context.Context, z *zooWorkloads, window time.Duration, traced bool, rep *report) *zooWindowResult {
	res := &zooWindowResult{}
	start := time.Now()
	for res.passes == 0 || time.Since(start) < window {
		var pass []*zooSolve
		for _, in := range zooInstances() {
			s := solveZoo(ctx, z, in, traced)
			checkZooSolve(rep, z, s)
			pass = append(pass, s)
		}
		checkZooCosts(rep, pass)
		res.solves = append(res.solves, pass...)
		res.passes++
	}
	res.wall = time.Since(start)
	return res
}

func solveZoo(ctx context.Context, z *zooWorkloads, in instance, traced bool) *zooSolve {
	s := &zooSolve{inst: in, budget: z.budgets[in], gap: math.NaN()}
	req := checkmate.Request{
		Workload:  z.wls[in.model],
		Method:    in.method,
		Budget:    s.budget,
		TimeLimit: zooLimit,
	}
	var tr *telemetry.Trace
	if traced {
		// Final gaps and incumbent counts come from an observer with rate
		// limiting off; the span tree from a trace of the solve's own.
		var mu sync.Mutex
		req.ProgressInterval = -1
		req.Observer = checkmate.ObserverFunc(func(e checkmate.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case checkmate.EventIncumbent:
				s.incumbents++
				s.gap = e.Gap
			case checkmate.EventBound:
				s.gap = e.Gap
			}
		})
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	ctx, span := telemetry.StartSpan(ctx, "bench.solve", telemetry.A("instance", in.String()))
	start := time.Now()
	sched, err := checkmate.Solve(ctx, req)
	s.wall = time.Since(start)
	span.End()
	if tr != nil {
		s.spans = summarizeTrace(tr)
	}
	s.err = err
	if err == nil && sched != nil {
		s.sched = sched
		s.planned = true
		s.optimal = sched.Optimal
		s.cost = sched.Cost
		s.ovh = sched.Overhead()
		s.ctr = sched.Solver
		if sched.Optimal {
			s.gap = 0
		}
	}
	return s
}

// checkZooSolve re-simulates a returned plan on the locally built graph and
// compares the outcome with the one recorded at the seed. A plan over budget
// or with a peak other than the reported one is a violation; a lost plan is
// a failure; a plan where the seed had none is a gain and fails nothing.
func checkZooSolve(rep *report, z *zooWorkloads, s *zooSolve) {
	rep.attempted++
	want := expectedOutcome(s.inst)
	if got := s.outcome(); got != want {
		rep.notes = append(rep.notes, fmt.Sprintf("%s: %s (seed: %s) %v", s.inst, got, want, s.err))
	}
	if !s.planned {
		atLimit := errors.Is(s.err, checkmate.ErrSolveLimit) || errors.Is(s.err, context.DeadlineExceeded)
		if want != none || !atLimit {
			rep.failed++
		}
		return
	}
	wl := z.wls[s.inst.model]
	if err := checkPlan(wl, s.sched.Plan, s.budget, s.sched.PeakBytes); err != nil {
		rep.failed++
		rep.violate("%s: %v", s.inst, err)
	}
	s.sched = nil // the plan is checked; keep only the summary
}

// checkPlan simulates plan on wl's graph and requires its peak to fit the
// budget and to equal the peak the solver reported.
func checkPlan(wl *checkmate.Workload, plan *schedule.Plan, budget, reported int64) error {
	sim, err := schedule.Simulate(wl.Graph, plan, wl.Overhead)
	if err != nil {
		return fmt.Errorf("plan does not simulate: %v", err)
	}
	if sim.PeakBytes > budget {
		return fmt.Errorf("plan peak %d exceeds budget %d", sim.PeakBytes, budget)
	}
	if sim.PeakBytes != reported {
		return fmt.Errorf("plan peak %d differs from reported peak %d", sim.PeakBytes, reported)
	}
	return nil
}

// checkZooCosts requires that wherever Optimal or Interval proves an
// instance optimal, no method's plan for it is cheaper.
func checkZooCosts(rep *report, pass []*zooSolve) {
	type point struct {
		model string
		frac  float64
	}
	byPoint := map[point][]*zooSolve{}
	for _, s := range pass {
		p := point{s.inst.model, s.inst.frac}
		byPoint[p] = append(byPoint[p], s)
	}
	for _, group := range byPoint {
		for _, p := range group {
			if !p.optimal || p.inst.method == checkmate.Approx {
				continue
			}
			for _, s := range group {
				if s.planned && s.cost < p.cost*(1-costTol) {
					rep.failed++
					rep.violate("%s cost %.12g is below the optimum %.12g proven by %s", s.inst, s.cost, p.cost, p.inst)
				}
			}
		}
	}
}

func fillZooE2E(rep *report, w *zooWindowResult) {
	var walls, ovh []float64
	proven, exact, planned := 0, 0, 0
	perInst := map[instance][]float64{}
	for _, s := range w.solves {
		t := ms(s.wall)
		walls = append(walls, t)
		perInst[s.inst] = append(perInst[s.inst], t)
		if s.planned {
			planned++
			if expectedOutcome(s.inst) != none {
				ovh = append(ovh, s.ovh)
			}
		}
		if s.inst.method != checkmate.Approx {
			exact++
			if s.optimal {
				proven++
			}
		}
	}
	// Each instance weighs the same in the geomean, however many passes
	// the window held.
	var instMS []float64
	for _, in := range zooInstances() {
		instMS = append(instMS, quantile(perInst[in], 0.5))
	}
	rep.e2e["ops_per_s"] = w.opsPerS()
	rep.e2e["latency_p50_ms"] = quantile(walls, 0.5)
	rep.e2e["latency_p99_ms"] = quantile(walls, 0.99)
	rep.e2e["latency_geomean_ms"] = geomean(instMS)
	rep.e2e["peak_rss_mb"] = peakRSSMiB()
	rep.e2e["overhead_geomean"] = geomean(ovh)
	rep.e2e["proven_share"] = float64(proven) / float64(exact)
	rep.e2e["solved_share"] = float64(planned) / float64(len(w.solves))
	rep.notes = append(rep.notes, fmt.Sprintf("%d solves in %d pass(es) over %.1fs", len(w.solves), w.passes, w.wall.Seconds()))
}

// fillZooLayers turns the traced pass's span trees, observer readings and
// solver counters into per-layer metrics. Layer times and counts are means
// per solve of the method that runs the layer.
func fillZooLayers(rep *report, z *zooWorkloads, w *zooWindowResult) {
	byMethod := map[checkmate.Method]*spanSummary{}
	walls := map[checkmate.Method][]float64{}
	gaps := map[checkmate.Method][]float64{}
	var warmHits, warmTries float64
	incumbents := 0
	all := newSpanSummary()
	for _, s := range w.solves {
		m := s.inst.method
		if byMethod[m] == nil {
			byMethod[m] = newSpanSummary()
		}
		byMethod[m].add(s.spans)
		all.add(s.spans)
		walls[m] = append(walls[m], ms(s.wall))
		if !math.IsNaN(s.gap) && !math.IsInf(s.gap, 0) {
			gaps[m] = append(gaps[m], s.gap)
		}
		switch {
		case m == checkmate.Approx:
			incumbents += s.incumbents
		case m == checkmate.Optimal && s.planned:
			warmHits += float64(s.ctr.WarmHits)
			warmTries += float64(s.ctr.WarmHits + s.ctr.WarmMisses)
		}
	}
	opt, itv, apx := byMethod[checkmate.Optimal], byMethod[checkmate.Interval], byMethod[checkmate.Approx]
	setSolverLayers(rep.layer, opt, itv, apx)
	rep.layer["milp.solve_ms_geomean"] = geomean(walls[checkmate.Optimal])
	rep.layer["interval.solve_ms_geomean"] = geomean(walls[checkmate.Interval])
	rep.layer["approx.solve_ms_geomean"] = geomean(walls[checkmate.Approx])
	rep.layer["milp.warm_hit_ratio"] = ratio(warmHits, warmTries)
	rep.layer["milp.final_gap"] = mean(gaps[checkmate.Optimal])
	rep.layer["interval.final_gap"] = mean(gaps[checkmate.Interval])
	rep.layer["approx.eps_incumbent_ratio"] = ratio(float64(incumbents), apx.count["eps_point"])
	rep.layer["schedule.plan_ms"] = ratio(all.self["plan"], all.count["plan"])

	var keyUS []float64
	for _, in := range zooInstances() {
		wl := z.wls[in.model]
		opt := checkmate.SolveOptions{TimeLimit: zooLimit}
		keyUS = append(keyUS, timeCallUS(func() { wl.SolveKeyFor(in.method, z.budgets[in], opt) }))
	}
	rep.layer["graph.solvekey_us"] = quantile(keyUS, 0.5)
}

// setSolverLayers fills the solver-layer metrics from per-method span
// summaries; a method the workload did not run leaves its layers at 0.
func setSolverLayers(layer map[string]float64, opt, itv, apx *spanSummary) {
	if opt != nil {
		n := opt.solves
		layer["core.build_ms"] = ratio(opt.self["presolve"], n)
		layer["core.lp_vars"] = ratio(opt.attr["presolve.vars"], opt.count["presolve"])
		layer["core.lp_rows"] = ratio(opt.attr["presolve.rows"], opt.count["presolve"])
		layer["lp.root_ms"] = ratio(opt.self["root_lp"], n)
		layer["lp.root_iters"] = ratio(opt.attr["root_lp.iters"], n)
		layer["lp.root_iters_per_s"] = ratio(opt.attr["root_lp.iters"], opt.self["root_lp"]/1e3)
		layer["milp.bb_ms"] = ratio(opt.self["branch_and_bound"]+opt.self["node_batch"], n)
		layer["milp.nodes"] = ratio(opt.attr["branch_and_bound.nodes"], n)
		layer["milp.nodes_per_s"] = ratio(opt.attr["branch_and_bound.nodes"], opt.total["branch_and_bound"]/1e3)
		layer["milp.probe_ms"] = ratio(opt.self["probe"], n)
		layer["milp.probe_iters"] = ratio(opt.attr["probe.iters"], n)
	}
	if itv != nil {
		n := itv.solves
		layer["interval.propagate_ms"] = ratio(itv.self["interval_propagate"], n)
		layer["interval.search_ms"] = ratio(itv.self["interval_search"], n)
		layer["interval.nodes"] = ratio(itv.attr["interval_search.nodes"], n)
	}
	if apx != nil {
		n := apx.solves
		layer["core.relax_builds"] = ratio(apx.count["lp_relax"], n)
		layer["lp.relax_ms"] = ratio(apx.self["lp_relax"], n)
		layer["lp.relax_iters"] = ratio(apx.attr["lp_relax.iters"], n)
		layer["lp.warm_accept_ratio"] = ratio(apx.attr["lp_relax.accepted_warm"], apx.attr["lp_relax.warm"])
		layer["approx.eps_points"] = ratio(apx.count["eps_point"], n)
		layer["approx.eps_warm_ratio"] = ratio(apx.attr["lp_relax.accepted_warm"], apx.count["lp_relax"])
		layer["approx.rounding_ms"] = ratio(apx.self["rounding"], n)
	}
}
