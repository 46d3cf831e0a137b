// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and appendices). Each experiment is a function
// writing human-readable rows/series to an io.Writer; the cmd/checkmate-bench
// CLI and the repository's testing.B benchmarks both call into this package,
// so the paper artifacts have exactly one implementation.
//
// Scale note: the paper solves with Gurobi on a 24-core machine under a
// 3600 s limit; this reproduction runs its own pure-Go MILP solver, so the
// default Scale builds block-granularity graphs and sweeps fewer budget
// points. The qualitative shapes — who wins, by what factor, where methods
// become infeasible — are the reproduction targets, not absolute numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/approx"
	"repro/internal/autodiff"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nets"
)

// Scale bounds experiment runtime.
type Scale struct {
	// Segments is the coarse block count for forward graphs (0 = model
	// default of 12).
	Segments int
	// BudgetPoints is the number of budgets per trade-off curve (0 = 5).
	BudgetPoints int
	// TimeLimit per ILP solve (0 = 45 s).
	TimeLimit time.Duration
	// RelGap accepted for ILP solves (0 = 0.02).
	RelGap float64
	// Progress, when any hook is set, streams solver progress (incumbents,
	// bounds, sweep points) out of the long-running ILP experiments so the
	// bench CLI can show a live trajectory.
	Progress core.ProgressHooks
}

func (s Scale) withDefaults() Scale {
	if s.Segments == 0 {
		s.Segments = 12
	}
	if s.BudgetPoints == 0 {
		s.BudgetPoints = 5
	}
	if s.TimeLimit == 0 {
		s.TimeLimit = 45 * time.Second
	}
	if s.RelGap == 0 {
		s.RelGap = 0.02
	}
	return s
}

// target builds a baseline target + instance for a model at the scale.
func target(model string, batch int, flops bool, sc Scale) (*baselines.Target, error) {
	var cm costmodel.Model
	if flops {
		cm = costmodel.NewFLOPs()
	} else {
		cm = costmodel.NewRoofline(costmodel.V100())
	}
	net, err := nets.ByName(model, nets.Config{Model: cm, Batch: batch, CoarseSegments: sc.Segments})
	if err != nil {
		return nil, err
	}
	ad, err := net.Training(autodiff.Options{})
	if err != nil {
		return nil, err
	}
	return &baselines.Target{AD: ad, Fwd: net.Fwd, Overhead: net.Overhead()}, nil
}

func gib(b float64) float64 { return b / float64(1<<30) }

// Fig1 regenerates Figure 1: the memory-over-time profile of a 32-layer
// network under the retain-all policy versus an optimal rematerialization
// schedule at roughly one third of the retain-all peak.
func Fig1(ctx context.Context, w io.Writer, sc Scale) error {
	sc = sc.withDefaults()
	tg, err := target("linear32", 24, false, Scale{Segments: 16, TimeLimit: sc.TimeLimit, RelGap: sc.RelGap})
	if err != nil {
		return err
	}
	g := tg.AD.Graph
	retain := core.CheckpointAll(g)
	peak := retain.Peak(g, tg.Overhead)
	minB := core.MinBudgetLowerBound(g, tg.Overhead)
	budget := int64(math.Max(float64(minB), peak/3))
	res, err := core.SolveILP(ctx, core.Instance{G: g, Budget: budget, Overhead: tg.Overhead},
		core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap})
	if err != nil {
		return err
	}
	if res.Sched == nil {
		return fmt.Errorf("fig1: infeasible at %d", budget)
	}
	fmt.Fprintf(w, "# Figure 1: memory over time (GB), 32-layer network, batch 24\n")
	fmt.Fprintf(w, "# retain-all peak %.2f GB; rematerialized budget %.2f GB; overhead %.3fx\n",
		gib(peak), gib(float64(budget)), res.Cost/g.TotalCost())
	emit := func(name string, s *core.Sched) {
		prof := s.MemUsage(g, tg.Overhead)
		fmt.Fprintf(w, "%s:", name)
		for t := 0; t < s.N; t++ {
			// Report the stage's high-water mark, one column per stage.
			hi := 0.0
			for k := 0; k <= t; k++ {
				if prof.U[t][k] > hi {
					hi = prof.U[t][k]
				}
			}
			fmt.Fprintf(w, " %.2f", gib(hi))
		}
		fmt.Fprintln(w)
	}
	emit("retain-all", retain)
	emit("rematerialize", res.Sched)
	return nil
}

// fig3Row is one model of the Figure 3 survey.
type fig3Row struct {
	model string
	batch int
	// gpuGB is the DRAM of the GPU era the model was trained on (dashed
	// line in the paper's figure).
	gpuGB float64
}

// Fig3 regenerates Figure 3: training memory decomposed into features
// (activations), workspace, parameters, and parameter gradients.
func Fig3(w io.Writer, _ Scale) error {
	rows := []fig3Row{
		{"alexnet", 128, 4}, {"vgg19", 64, 12}, {"inceptionv3", 64, 12},
		{"resnet152", 32, 12}, {"densenet201", 32, 12}, {"resnext101", 32, 12},
		{"fcn8", 8, 12}, {"transformer", 32, 16}, {"roberta", 8, 16},
		{"biggan", 32, 16}, {"vgg16", 64, 12}, {"mobilenet", 128, 16}, {"unet", 8, 16},
	}
	fmt.Fprintf(w, "# Figure 3: memory consumed by model (GB)\n")
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s %10s %8s\n",
		"model", "batch", "features", "workspace", "params", "gradients", "total", "gpuGB")
	for _, r := range rows {
		net, err := nets.ByName(r.model, nets.Config{Model: costmodel.NewRoofline(costmodel.V100()), Batch: r.batch})
		if err != nil {
			return err
		}
		feat := gib(float64(net.FeatureBytes))
		ws := gib(float64(net.WorkspaceBytes))
		par := gib(float64(net.ParamBytes))
		total := feat + ws + 2*par
		fmt.Fprintf(w, "%-14s %8d %10.2f %10.2f %10.2f %10.2f %10.2f %8.0f\n",
			r.model, r.batch, feat, ws, par, par, total, r.gpuGB)
	}
	return nil
}

// Table1 prints the strategy capability matrix.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "# Table 1: rematerialization strategies\n")
	fmt.Fprintf(w, "%-22s %-14s %-10s %-12s\n", "method", "general-graphs", "cost-aware", "memory-aware")
	rows := [][4]string{
		{"checkpoint-all", "yes", "no", "no"},
		{"griewank-logn", "no", "no", "no"},
		{"chen-sqrt(n)", "no", "no", "no"},
		{"chen-greedy", "no", "no", "partial"},
		{"ap-sqrt(n)", "partial", "no", "no"},
		{"ap-greedy", "partial", "no", "partial"},
		{"linearized-sqrt(n)", "yes", "no", "no"},
		{"linearized-greedy", "yes", "no", "partial"},
		{"checkmate-ilp", "yes", "yes", "yes"},
		{"checkmate-approx", "yes", "yes", "yes"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-14s %-10s %-12s\n", r[0], r[1], r[2], r[3])
	}
}

// CurvePoint is one point of a Figure 5 trade-off curve.
type CurvePoint struct {
	Strategy string
	BudgetGB float64
	Overhead float64 // cost / ideal cost
	Feasible bool
}

// Fig5 regenerates one panel of Figure 5: computational overhead versus
// memory budget for every strategy on the given model. Checkmate rows solve
// the ILP at each budget; baseline rows report their cheapest schedule that
// fits the budget.
func Fig5(ctx context.Context, w io.Writer, model string, batch int, sc Scale) ([]CurvePoint, error) {
	sc = sc.withDefaults()
	tg, err := target(model, batch, false, sc)
	if err != nil {
		return nil, err
	}
	g := tg.AD.Graph
	ideal := g.TotalCost()
	ca := baselines.CheckpointAll(tg)
	minB := float64(core.MinBudgetLowerBound(g, tg.Overhead))
	peak := ca.PeakBytes

	// Pre-compute baseline Pareto families.
	families := map[string][]baselines.Point{
		"checkpoint-all": {ca},
		"ap-sqrt(n)":     {baselines.APSqrtN(tg)},
		"lin-sqrt(n)":    {baselines.LinearizedSqrtN(tg)},
	}
	if pts, err := baselines.GreedySweep(tg, "ap-greedy", 10); err == nil {
		families["ap-greedy"] = pts
	}
	if pts, err := baselines.GreedySweep(tg, "linearized-greedy", 10); err == nil {
		families["lin-greedy"] = pts
	}
	if tg.Fwd.IsLinear() {
		if p, err := baselines.ChenSqrtN(tg); err == nil {
			families["chen-sqrt(n)"] = []baselines.Point{p}
		}
		if pts, err := baselines.GreedySweep(tg, "chen-greedy", 10); err == nil {
			families["chen-greedy"] = pts
		}
		if pts, err := baselines.RevolveSweep(tg, 0); err == nil {
			families["griewank-logn"] = pts
		}
	}

	var out []CurvePoint
	fmt.Fprintf(w, "# Figure 5 panel: %s (batch %d) — overhead (x) vs budget (GB)\n", model, batch)
	fmt.Fprintf(w, "# ideal cost %.4g, checkpoint-all peak %.2f GB, min feasible %.2f GB\n", ideal, gib(peak), gib(minB))
	// All ILP points solve as one warm-started sweep: SweepILP walks budgets
	// in decreasing order, reoptimizing each root LP from the previous basis
	// by dual simplex instead of cold-solving every point.
	budgets := make([]int64, sc.BudgetPoints)
	for p := 0; p < sc.BudgetPoints; p++ {
		frac := float64(p) / float64(sc.BudgetPoints-1)
		budgets[p] = int64(minB + (peak*1.02-minB)*frac)
	}
	ilp, err := core.SweepILP(ctx, core.Instance{G: g, Overhead: tg.Overhead}, budgets,
		core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap, Progress: sc.Progress})
	if err != nil {
		return nil, err
	}
	for p := 0; p < sc.BudgetPoints; p++ {
		budget := float64(budgets[p])
		res := ilp[p]
		cp := CurvePoint{Strategy: "checkmate-ilp", BudgetGB: gib(budget)}
		if res.Sched != nil {
			cp.Overhead = res.Cost / ideal
			cp.Feasible = true
		}
		out = append(out, cp)
		// Checkmate approximation.
		if r, err := approx.SolveWithSearch(ctx, core.Instance{G: g, Budget: int64(budget), Overhead: tg.Overhead}, approx.Options{}); err == nil {
			out = append(out, CurvePoint{Strategy: "checkmate-approx", BudgetGB: gib(budget), Overhead: r.Cost / ideal, Feasible: true})
		} else {
			out = append(out, CurvePoint{Strategy: "checkmate-approx", BudgetGB: gib(budget)})
		}
		// Baselines: cheapest family member fitting the budget.
		for name, pts := range families {
			cp := CurvePoint{Strategy: name, BudgetGB: gib(budget)}
			best := math.Inf(1)
			for _, pt := range pts {
				if pt.PeakBytes <= budget && pt.Cost < best {
					best = pt.Cost
				}
			}
			if !math.IsInf(best, 1) {
				cp.Overhead = best / ideal
				cp.Feasible = true
			}
			out = append(out, cp)
		}
	}
	// Render grouped by strategy.
	byStrat := map[string][]CurvePoint{}
	var order []string
	for _, cp := range out {
		if _, ok := byStrat[cp.Strategy]; !ok {
			order = append(order, cp.Strategy)
		}
		byStrat[cp.Strategy] = append(byStrat[cp.Strategy], cp)
	}
	for _, name := range order {
		fmt.Fprintf(w, "%-18s", name)
		for _, cp := range byStrat[name] {
			if cp.Feasible {
				fmt.Fprintf(w, "  %5.2fGB:%.3fx", cp.BudgetGB, cp.Overhead)
			} else {
				fmt.Fprintf(w, "  %5.2fGB:  -  ", cp.BudgetGB)
			}
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// MaxBatchRow is one bar group of Figure 6.
type MaxBatchRow struct {
	Model         string
	CheckpointAll int
	APSqrtN       int
	LinGreedy     int
	Checkmate     int
}

// Fig6 regenerates Figure 6: the maximum batch size trainable on a 16 GB
// V100 when total cost may exceed ideal by at most one extra forward pass
// (eq. (10)). Costs are measured in FLOPs as in the paper. The paper's
// quadratic MIP is replaced by an exact binary search over the (monotone)
// batch size, each probe a linear MILP.
func Fig6(ctx context.Context, w io.Writer, models []string, sc Scale) ([]MaxBatchRow, error) {
	sc = sc.withDefaults()
	if len(models) == 0 {
		models = []string{"unet", "fcn8", "segnet", "vgg19", "resnet50", "mobilenet"}
	}
	budget := int64(16) << 30
	var rows []MaxBatchRow
	fmt.Fprintf(w, "# Figure 6: max batch size @16GB, ≤1 extra forward pass, FLOP costs\n")
	fmt.Fprintf(w, "%-12s %14s %10s %10s %10s\n", "model", "checkpoint-all", "ap-sqrt", "lin-greedy", "checkmate")
	for _, model := range models {
		row := MaxBatchRow{Model: model}
		probe := func(strategy string) int {
			lo, hi := 0, 1
			feasible := func(b int) bool { return feasibleAtBatch(ctx, model, b, budget, strategy, sc) }
			if !feasible(1) {
				return 0
			}
			for feasible(hi * 2) {
				hi *= 2
				if hi > 1<<16 {
					break
				}
			}
			lo, hi = hi, hi*2
			for lo+1 < hi {
				mid := (lo + hi) / 2
				if feasible(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
			return lo
		}
		row.CheckpointAll = probe("checkpoint-all")
		row.APSqrtN = probe("ap-sqrt(n)")
		row.LinGreedy = probe("linearized-greedy")
		row.Checkmate = probe("checkmate")
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s %14d %10d %10d %10d\n",
			model, row.CheckpointAll, row.APSqrtN, row.LinGreedy, row.Checkmate)
	}
	return rows, nil
}

// feasibleAtBatch reports whether the strategy can train the model at batch b
// within the budget and the one-extra-forward-pass cost cap.
func feasibleAtBatch(ctx context.Context, model string, b int, budget int64, strategy string, sc Scale) bool {
	if b < 1 {
		return false
	}
	tg, err := target(model, b, true, sc)
	if err != nil {
		return false
	}
	g := tg.AD.Graph
	cap := 2*tg.AD.ForwardCost() + tg.AD.BackwardCost()
	fits := func(p baselines.Point) bool {
		return p.PeakBytes <= float64(budget) && p.Cost <= cap
	}
	switch strategy {
	case "checkpoint-all":
		return fits(baselines.CheckpointAll(tg))
	case "ap-sqrt(n)":
		return fits(baselines.APSqrtN(tg))
	case "linearized-greedy":
		pts, err := baselines.GreedySweep(tg, "linearized-greedy", 10)
		if err != nil {
			return false
		}
		for _, p := range pts {
			if fits(p) {
				return true
			}
		}
		return false
	case "checkmate":
		if core.MinBudgetLowerBound(g, tg.Overhead) > budget {
			return false
		}
		// Try the cheap approximation first; fall back to the ILP.
		if r, err := approx.SolveWithSearch(ctx, core.Instance{G: g, Budget: budget, Overhead: tg.Overhead}, approx.Options{}); err == nil {
			if r.Feasible && r.Cost <= cap {
				return true
			}
		}
		res, err := core.SolveILP(ctx, core.Instance{G: g, Budget: budget, Overhead: tg.Overhead},
			core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap, CostCap: cap})
		if err != nil || res.Sched == nil {
			return false
		}
		return res.Cost <= cap
	default:
		return false
	}
}

// Table2Row is one architecture of Table 2.
type Table2Row struct {
	Model                                 string
	APSqrtN, APGreedy, Griewank, TwoPhase float64 // geomean cost ratios vs ILP
}

// Table2 regenerates Table 2: geometric-mean approximation ratios of the
// baseline heuristics and two-phase LP rounding relative to the optimal ILP,
// across the budgets where the ILP is feasible.
func Table2(ctx context.Context, w io.Writer, models []string, sc Scale) ([]Table2Row, error) {
	sc = sc.withDefaults()
	if len(models) == 0 {
		models = []string{"mobilenet", "vgg16", "vgg19", "unet", "resnet50"}
	}
	fmt.Fprintf(w, "# Table 2: geomean approximation ratio vs optimal ILP (lower is better)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %14s %10s\n", "model", "ap-sqrt", "ap-greedy", "griewank-logn", "two-phase")
	var rows []Table2Row
	for _, model := range models {
		tg, err := target(model, 4, true, sc)
		if err != nil {
			return nil, err
		}
		g := tg.AD.Graph
		minB := float64(core.MinBudgetLowerBound(g, tg.Overhead))
		peak := baselines.CheckpointAll(tg).PeakBytes
		apG, _ := baselines.GreedySweep(tg, "ap-greedy", 10)
		var revolve []baselines.Point
		if tg.Fwd.IsLinear() {
			revolve, _ = baselines.RevolveSweep(tg, 0)
		}
		apS := baselines.APSqrtN(tg)

		// One warm-started sweep covers every ILP reference point.
		budgets := make([]int64, sc.BudgetPoints)
		for p := 0; p < sc.BudgetPoints; p++ {
			frac := float64(p+1) / float64(sc.BudgetPoints+1)
			budgets[p] = int64(minB + (peak-minB)*frac)
		}
		ilp, err := core.SweepILP(ctx, core.Instance{G: g, Overhead: tg.Overhead}, budgets,
			core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap, Progress: sc.Progress})
		if err != nil {
			return nil, err
		}
		var rAPS, rAPG, rREV, rTP []float64
		for p := 0; p < sc.BudgetPoints; p++ {
			budget := float64(budgets[p])
			res := ilp[p]
			if res.Sched == nil {
				continue
			}
			opt := res.Cost
			if c, ok := bestUnder(append([]baselines.Point{}, apS), budget); ok {
				rAPS = append(rAPS, c/opt)
			}
			if c, ok := bestUnder(apG, budget); ok {
				rAPG = append(rAPG, c/opt)
			}
			if c, ok := bestUnder(revolve, budget); ok {
				rREV = append(rREV, c/opt)
			}
			if r, err := approx.SolveWithSearch(ctx, core.Instance{G: g, Budget: int64(budget), Overhead: tg.Overhead}, approx.Options{}); err == nil && r.Feasible {
				rTP = append(rTP, r.Cost/opt)
			}
		}
		row := Table2Row{Model: model,
			APSqrtN: geomean(rAPS), APGreedy: geomean(rAPG),
			Griewank: geomean(rREV), TwoPhase: geomean(rTP)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s %10s %10s %14s %10s\n", model,
			ratioStr(row.APSqrtN), ratioStr(row.APGreedy), ratioStr(row.Griewank), ratioStr(row.TwoPhase))
	}
	return rows, nil
}

func bestUnder(pts []baselines.Point, budget float64) (float64, bool) {
	best := math.Inf(1)
	for _, p := range pts {
		if p.PeakBytes <= budget && p.Cost < best {
			best = p.Cost
		}
	}
	return best, !math.IsInf(best, 1)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratioStr(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.2fx", x)
}

// Fig7 regenerates Figure 7: ASCII visualizations of the R matrix for
// checkpoint-all, a Chen-style heuristic, and the Checkmate ILP on VGG19.
func Fig7(ctx context.Context, w io.Writer, sc Scale) error {
	sc = sc.withDefaults()
	tg, err := target("vgg19", 4, false, sc)
	if err != nil {
		return err
	}
	g := tg.AD.Graph
	minB := float64(core.MinBudgetLowerBound(g, tg.Overhead))
	peak := baselines.CheckpointAll(tg).PeakBytes
	budget := minB + (peak-minB)*0.4

	fmt.Fprintf(w, "# Figure 7: R-matrix schedules for VGG19 (stage rows × layer columns)\n")
	render := func(name string, s *core.Sched) {
		fmt.Fprintf(w, "-- %s (cost %.4g, peak %.2f GB)\n", name, s.Cost(g), gib(s.Peak(g, tg.Overhead)))
		for t := 0; t < s.N; t++ {
			row := make([]byte, s.N)
			for i := 0; i < s.N; i++ {
				switch {
				case s.R[t][i]:
					row[i] = '#'
				case s.S[t][i]:
					row[i] = '.'
				default:
					row[i] = ' '
				}
			}
			fmt.Fprintf(w, "%s\n", row)
		}
	}
	render("checkpoint-all (TF2.0 default)", core.CheckpointAll(g))
	render("linearized greedy (Chen-style)", bestGreedySched(tg, budget))
	res, err := core.SolveILP(ctx, core.Instance{G: g, Budget: int64(budget), Overhead: tg.Overhead},
		core.SolveOptions{TimeLimit: sc.TimeLimit, RelGap: sc.RelGap})
	if err != nil {
		return err
	}
	if res.Sched != nil {
		render("checkmate ILP", res.Sched)
	}
	return nil
}

func bestGreedySched(tg *baselines.Target, budget float64) *core.Sched {
	pts, err := baselines.GreedySweep(tg, "linearized-greedy", 10)
	if err != nil || len(pts) == 0 {
		return core.CheckpointAll(tg.AD.Graph)
	}
	best := pts[0]
	found := false
	for _, p := range pts {
		if p.PeakBytes <= budget && (!found || p.Cost < best.Cost) {
			best, found = p, true
		}
	}
	return best.Sched
}

// Fig8 regenerates Figure 8: deterministic versus randomized two-phase
// rounding, reporting (memory GB, cost) samples per model.
func Fig8(ctx context.Context, w io.Writer, models []string, sc Scale) error {
	sc = sc.withDefaults()
	if len(models) == 0 {
		models = []string{"vgg16", "mobilenet"}
	}
	for _, model := range models {
		tg, err := target(model, 4, false, sc)
		if err != nil {
			return err
		}
		g := tg.AD.Graph
		peak := baselines.CheckpointAll(tg).PeakBytes
		minB := float64(core.MinBudgetLowerBound(g, tg.Overhead))
		budget := int64(minB + (peak-minB)*0.8)
		// Keep the ε-deflated LP budget above the feasibility floor.
		eps := 0.1
		if float64(budget)*(1-eps) < minB {
			eps = math.Max(1e-9, 1-minB*1.02/float64(budget)) // >0 so the approx default is not re-applied
		}
		det, rnd, err := approx.Samples(ctx, core.Instance{G: g, Budget: budget, Overhead: tg.Overhead},
			approx.Options{Samples: 50, Seed: 20, Epsilon: eps})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 8 panel: %s (budget %.2f GB)\n", model, gib(float64(budget)))
		fmt.Fprintf(w, "deterministic: mem=%.3fGB cost=%.4g feasible=%v\n", gib(det.PeakBytes), det.Cost, det.Feasible)
		var sum float64
		feas := 0
		for _, r := range rnd {
			sum += r.Cost
			if r.Feasible {
				feas++
			}
		}
		fmt.Fprintf(w, "randomized (%d samples): mean cost=%.4g, %d feasible\n", len(rnd), sum/float64(len(rnd)), feas)
		for i, r := range rnd {
			if i%10 == 0 {
				fmt.Fprintf(w, "  sample %2d: mem=%.3fGB cost=%.4g\n", i, gib(r.PeakBytes), r.Cost)
			}
		}
	}
	return nil
}

// AppendixAResult captures the integrality-gap experiment.
type AppendixAResult struct {
	PartGap, UnpartGap     float64
	PartTime, UnpartTime   time.Duration
	PartNodes, UnpartNodes int
	PartCost, UnpartCost   float64
}

// AppendixA regenerates the Appendix A integrality-gap experiment: the
// 8-layer unit-cost linear network (n = 17 including the loss node) at
// budget 4, solved with and without frontier-advancing partitioning. The
// paper reports gaps of 1.18 (partitioned) versus 21.56 (unpartitioned) and
// solve times of 0.23 s versus 9.4 h.
func AppendixA(ctx context.Context, w io.Writer, sc Scale) (*AppendixAResult, error) {
	sc = sc.withDefaults()
	fwd := graph.New(8)
	for i := 0; i < 8; i++ {
		fwd.AddNode(graph.Node{Name: fmt.Sprintf("l%d", i), Cost: 1, Mem: 1})
	}
	for i := 1; i < 8; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	autodiff.AttachLoss(fwd, 1)
	ad, err := autodiff.Differentiate(fwd, autodiff.Options{UnitCost: true})
	if err != nil {
		return nil, err
	}
	g := ad.Graph
	inst := core.Instance{G: g, Budget: 4}
	out := &AppendixAResult{}

	// Partitioned (frontier-advancing) form.
	resP, err := core.SolveILP(ctx, inst, core.SolveOptions{TimeLimit: sc.TimeLimit})
	if err != nil {
		return nil, err
	}
	_, lpP, err := core.SolveRelaxation(ctx, inst, false)
	if err != nil {
		return nil, err
	}
	out.PartTime, out.PartNodes = resP.SolveTime, resP.Nodes
	if resP.Sched != nil {
		out.PartCost = resP.Cost
		out.PartGap = resP.Cost / lpP
	} else {
		out.PartCost, out.PartGap = math.NaN(), math.NaN()
	}

	// Unpartitioned form, seeded with the partitioned optimum (every
	// frontier-advancing schedule is feasible for the general form). The
	// paper could not close this form in under 9.4 hours; we bound the time
	// and report the measured gap against the unpartitioned LP relaxation.
	_, lpU, err := core.SolveRelaxation(ctx, inst, true)
	if err != nil {
		return nil, err
	}
	resU, err := core.SolveILP(ctx, inst, core.SolveOptions{
		TimeLimit: 2 * sc.TimeLimit, Unpartitioned: true, Seed: resP.Sched,
	})
	if err != nil {
		return nil, err
	}
	out.UnpartTime, out.UnpartNodes = resU.SolveTime, resU.Nodes
	if resU.Sched != nil {
		out.UnpartCost = resU.Cost
		out.UnpartGap = resU.Cost / lpU
	} else if resP.Sched != nil {
		// Best known integral cost over the unpartitioned LP bound.
		out.UnpartCost = resP.Cost
		out.UnpartGap = resP.Cost / lpU
	} else {
		out.UnpartCost, out.UnpartGap = math.NaN(), math.NaN()
	}

	fmt.Fprintf(w, "# Appendix A: integrality gap, 8-layer unit-cost chain (n=%d), budget 4\n", g.Len())
	fmt.Fprintf(w, "%-14s %12s %12s %10s %8s\n", "formulation", "gap", "ilp-cost", "time", "nodes")
	fmt.Fprintf(w, "%-14s %12.3f %12.4g %10v %8d\n", "partitioned", out.PartGap, out.PartCost, out.PartTime.Round(time.Millisecond), out.PartNodes)
	fmt.Fprintf(w, "%-14s %12.3f %12.4g %10v %8d\n", "unpartitioned", out.UnpartGap, out.UnpartCost, out.UnpartTime.Round(time.Millisecond), out.UnpartNodes)
	fmt.Fprintf(w, "# paper: partitioned gap 1.18 (0.23 s), unpartitioned gap 21.56 (9.4 h)\n")
	return out, nil
}
