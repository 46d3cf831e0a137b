// The unified solve surface: one context-first entry point, Solve, drives
// every solver in the system — the exact MILP, the polynomial-time
// approximation, the prior-work baselines, and multi-budget sweeps — and
// streams typed progress events while it runs.
//
// Checkmate's optimal solves are anytime searches: branch-and-bound holds a
// feasible incumbent and a proven bound long before optimality (paper
// Section 4.7). A Request's Observer (or Events channel) surfaces that
// trajectory — Started, Incumbent, BoundImproved, SweepPoint, Done — so
// callers can act on a good-enough incumbent under a deadline instead of
// blocking blind until the proof closes.

package checkmate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/milp"
	"repro/internal/telemetry"
)

// Method selects the solving algorithm of a Request.
type Method string

// Solve methods.
const (
	// Optimal solves the MILP of paper Section 4.7 (the default).
	Optimal Method = "optimal"
	// Approx runs the polynomial-time two-phase LP rounding of Section 5
	// with the ε-search refinement of Appendix D.
	Approx Method = "approx"
	// Baseline computes the prior-work heuristic named by Request.Baseline
	// (Table 1).
	Baseline Method = "baseline"
	// Interval solves the Moccasin-style retention-interval formulation:
	// O(|E|) interval variables with constraint propagation and best-first
	// LP-bounded search — exact within its space and scaling to graphs far
	// beyond the MILP's reach.
	Interval Method = "interval"
	// Anytime is the graceful-degradation ladder: the request deadline is
	// split into slices escalating Optimal → Interval → Approx → Baseline,
	// and the best feasible schedule any rung produced is returned — stamped
	// Schedule.Degraded when quality fell short of a full solve — instead of
	// ErrSolveLimit. Availability degrades quality, never feasibility.
	Anytime Method = "anytime"
	// Auto routes to Optimal for graphs of at most AutoMethodThreshold
	// nodes and to Interval above it; when the chosen method's projected
	// solve cost clearly overruns the request deadline it routes to Anytime
	// instead, so a tight deadline degrades quality rather than failing.
	Auto Method = "auto"
)

// AutoMethodThreshold is the graph size, in nodes, above which Method Auto
// selects Interval instead of Optimal. At and below it the MILP proves
// global optima in reasonable time; above it the O(n²) program outgrows the
// time limit and the interval formulation wins.
const AutoMethodThreshold = 64

// MethodInfo describes one registered solve method.
type MethodInfo struct {
	Method      Method `json:"method"`
	Description string `json:"description"`
}

// Methods returns the registered solve methods in stable order with
// one-line descriptions — the single source of truth that request
// validation, the HTTP surface, and the CLI flags enumerate.
func Methods() []MethodInfo {
	return []MethodInfo{
		{Optimal, "exact MILP branch-and-bound (paper Section 4.7); the default"},
		{Approx, "polynomial-time two-phase LP rounding with ε-search (Section 5, Appendix D)"},
		{Baseline, "prior-work heuristic named by Request.Baseline (Table 1)"},
		{Interval, "Moccasin-style retention-interval search; scales to graphs far beyond the MILP"},
		{Anytime, "graceful-degradation ladder Optimal → Interval → Approx → Baseline within the deadline; degrades quality, never feasibility"},
		{Auto, fmt.Sprintf("Optimal for graphs up to %d nodes, Interval above; Anytime when the deadline is clearly too tight", AutoMethodThreshold)},
	}
}

// MethodNames returns the registered method identifiers in stable order —
// the strings Request.Method and the HTTP "method" field accept.
func MethodNames() []string {
	ms := Methods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = string(m.Method)
	}
	return names
}

// ValidMethod reports whether name is a registered method. The empty string
// is valid and selects the default (Optimal).
func ValidMethod(name Method) bool {
	if name == "" {
		return true
	}
	for _, m := range Methods() {
		if m.Method == name {
			return true
		}
	}
	return false
}

// Resolve maps the request's Method onto the concrete algorithm it will
// run: the empty method defaults to Optimal, and Auto picks Optimal at or
// below AutoMethodThreshold nodes (and for sweeps, which only the MILP
// serves) and Interval above — rerouting to Anytime when the preferred
// method's projected cost clearly overruns the request deadline. Resolution
// depends only on the request and the workload, so identical requests
// resolve — and cache-key — identically across processes.
func (r Request) Resolve() Method {
	m := r.Method
	if m == "" {
		m = Optimal
	}
	if m != Auto {
		return m
	}
	if len(r.Budgets) > 0 || r.Workload == nil || r.Workload.Graph == nil {
		return Optimal
	}
	return r.Workload.autoResolve(r.Budget, r.options())
}

// EventKind discriminates solver progress events.
type EventKind string

// Event kinds, in the order they can appear within one solve: exactly one
// Started (per sweep point), any number of Incumbent and BoundImproved
// interleavings, one SweepPoint per sweep budget, and exactly one terminal
// Done.
const (
	// EventStarted reports that the solver has accepted the problem; for
	// optimal solves it carries the MILP dimensions (Vars × Rows).
	EventStarted EventKind = "started"
	// EventIncumbent reports an improved feasible schedule: its objective,
	// the proven bound, the relative gap, and the overhead summary.
	EventIncumbent EventKind = "incumbent"
	// EventBound reports an improved proven lower bound.
	EventBound EventKind = "bound"
	// EventSweepPoint reports one completed budget of a sweep request.
	EventSweepPoint EventKind = "sweep_point"
	// EventDegraded reports that the anytime ladder fell from one rung to
	// the next (the From rung failed or was skipped; the To rung runs next)
	// — never rate-limited, so deadline-bound callers always see quality
	// degrade as it happens.
	EventDegraded EventKind = "degraded"
	// EventDone is the terminal event, carrying the final Schedule or error.
	EventDone EventKind = "done"
)

// Event is one progress update from an in-flight Solve. Only the fields
// relevant to its Kind are populated.
type Event struct {
	Kind EventKind
	// Elapsed is the time since Solve began.
	Elapsed time.Duration
	// Budget is the memory budget the event concerns — the request's, or
	// the in-flight point's during a sweep.
	Budget int64

	// Vars and Rows are the MILP dimensions (Started; zero for the approx
	// and baseline methods, which build no integer program, and for a
	// request the presolve served, which builds no program at all).
	Vars, Rows int

	// Objective is the incumbent schedule cost in the workload's cost
	// units and Overhead its ratio to the ideal checkpoint-all cost
	// (Incumbent).
	Objective float64
	Overhead  float64
	// Bound is the proven lower bound on the optimal cost, -Inf while
	// unproven; Gap is (Objective-Bound)/|Objective|, +Inf while the bound
	// is unproven (Incumbent, BoundImproved).
	Bound float64
	Gap   float64

	// Index and Point report one finished budget of a sweep (SweepPoint);
	// Index addresses the request's Budgets slice.
	Index int
	Point *SweepPoint

	// From and To name the ladder rungs of an anytime fallback and Reason
	// why the From rung did not serve (Degraded).
	From   Method
	To     Method
	Reason string

	// Schedule and Err carry the final outcome (Done). Both may be set on
	// a failed sweep that still produced per-point schedules.
	Schedule *Schedule
	Err      error
}

// Observer receives progress events from an in-flight Solve. Events are
// delivered synchronously and in order from solver goroutines — an
// implementation must be fast and safe for concurrent use; a slow observer
// stalls the search.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Request describes one solve for the unified entry point. The zero value
// of every optional field selects the documented default.
//
// A single-budget request whose method resolves to Optimal, Interval, Approx
// or Anytime, and whose Budget is at least Workload.IdealPeak, is presolved:
// Solve serves core.IdealSched, which computes every node once, without
// building a formulation. Its cost is the ideal, a proven optimum, so the
// Schedule reports Optimal (false for Approx, which never claims it),
// Method Optimal for Anytime, and zero Solver, Nodes, LPVars and LPRows.
// Unpartitioned requests, baselines and sweeps always run their solver.
type Request struct {
	// Workload is the scheduling problem (required).
	Workload *Workload
	// Method selects the algorithm: Optimal (default), Approx, Baseline,
	// Interval, or Auto. See Methods for the registry with descriptions.
	Method Method
	// Budget is the memory budget in bytes (required unless Budgets is set).
	Budget int64
	// Budgets, when non-empty, switches to sweep mode — the paper's
	// Figure 5 curve: every budget is solved (warm-started in decreasing
	// budget order), each completion is announced as a SweepPoint event,
	// and the returned Schedule is that of the smallest feasible budget.
	// Only valid with Method Optimal.
	Budgets []int64

	// TimeLimit bounds the solve's wall clock (default 60 s, mirroring the
	// paper's solver limits). It applies to every method: the optimal
	// search stops at its incumbent, and the approx ε-search is cut off
	// via context deadline.
	TimeLimit time.Duration
	// RelGap is the accepted relative optimality gap (default 1e-6: solve
	// to proven optimality). Optimal only.
	RelGap float64
	// Unpartitioned disables frontier-advancing stages (Appendix A).
	// Optimal only.
	Unpartitioned bool
	// Threads is the number of parallel branch-and-bound workers (0 or 1 =
	// serial). Optimal only.
	Threads int
	// Baseline names the heuristic for Method Baseline; see BaselineNames.
	// Defaults to "checkpoint-all".
	Baseline string

	// Observer, when non-nil, receives every progress event synchronously
	// and losslessly (subject to ProgressInterval rate limiting).
	Observer Observer
	// Events, when non-nil, receives the same events via non-blocking
	// sends: an event that does not fit the channel's buffer is dropped
	// rather than stalling the solver — EventDone included, so do not block
	// waiting for Done on this channel alone; Solve's return is the
	// reliable end-of-stream signal. Size the buffer generously, or use an
	// Observer when loss matters. The channel is never closed by Solve.
	Events chan<- Event
	// ProgressInterval rate-limits Incumbent and BoundImproved events: after
	// one is delivered, further ones are suppressed for this long. The
	// first incumbent and the terminal Done are never suppressed. Zero
	// selects the 100 ms default; negative disables rate limiting.
	ProgressInterval time.Duration
}

// DefaultProgressInterval is the Incumbent/BoundImproved rate limit applied
// when Request.ProgressInterval is zero.
const DefaultProgressInterval = 100 * time.Millisecond

// options normalizes the request's solver knobs into SolveOptions,
// applying the 60 s default time limit.
func (r Request) options() SolveOptions {
	opt := SolveOptions{
		TimeLimit:     r.TimeLimit,
		RelGap:        r.RelGap,
		Unpartitioned: r.Unpartitioned,
		Threads:       r.Threads,
	}
	if opt.TimeLimit == 0 {
		opt.TimeLimit = 60 * time.Second
	}
	return opt
}

// Key returns the complete schedule-cache key of a single-budget request:
// the workload fingerprint extended with the budget and every option that
// can change the resulting schedule. Two requests with equal keys produce
// interchangeable schedules.
func (r Request) Key() graph.Fingerprint {
	method := r.Resolve()
	key := r.Workload.SolveKeyFor(method, r.Budget, r.options())
	// A heuristic schedule must never collide with the optimal (or approx)
	// one for the same workload/budget, and distinct heuristics must not
	// collide with each other. The anytime ladder's last rung runs the
	// named baseline, so the name is part of its key too (the inner keys
	// already live in distinct digest domains, so baseline and anytime
	// extensions cannot collide with each other).
	if method != Baseline && method != Anytime {
		return key
	}
	name := r.Baseline
	if name == "" {
		name = "checkpoint-all"
	}
	d := graph.NewDigest()
	d.String("baseline/v1")
	d.String(key.String())
	d.String(name)
	return d.Sum()
}

// Solve is the single context-first entry point of the public API: it
// solves req.Workload under req.Budget with the selected Method, streaming
// typed progress events to req.Observer/req.Events while the solver runs,
// and returns the final schedule.
//
// Cancellation: when ctx ends, the branch-and-bound search (and any
// in-flight simplex solve) stops promptly and ctx.Err() is returned.
// req.TimeLimit additionally bounds the solve's wall clock for every
// method.
//
// Sweeps: with req.Budgets set, every budget is solved warm-started and
// announced as a SweepPoint event; the returned Schedule is the smallest
// feasible budget's, and ErrInfeasible is returned when no budget was
// feasible. Per-point infeasibility is reported in the points, never as
// the error.
func Solve(ctx context.Context, req Request) (*Schedule, error) {
	w := req.Workload
	if w == nil {
		return nil, fmt.Errorf("checkmate: Request.Workload is required")
	}
	method := req.Resolve()
	// The root telemetry span covers the entire solve — dispatch, search,
	// plan generation, and terminal event delivery — so a trace's span tree
	// accounts for essentially all of the call's wall clock. A no-op when the
	// context carries no telemetry.Trace.
	ctx, rootSpan := telemetry.StartSpan(ctx, "solve",
		telemetry.A("method", string(method)), telemetry.A("budget", req.Budget))
	em := newEmitter(req)
	var (
		sched      *Schedule
		err        error
		doneBudget = req.Budget
	)
	switch {
	case len(req.Budgets) > 0:
		if method != Optimal {
			err = fmt.Errorf("checkmate: sweep requests (Request.Budgets) require Method %q, got %q", Optimal, method)
		} else {
			var budget int64
			// The terminal Done must name the budget of the schedule it
			// carries — the smallest feasible point's — not whichever point
			// happened to solve last.
			if sched, budget, err = w.solveSweepRequest(ctx, req, em); sched != nil {
				doneBudget = budget
			}
		}
	case req.Budget <= 0:
		err = fmt.Errorf("checkmate: Request.Budget must be positive, got %d", req.Budget)
	default:
		var ideal bool
		if sched, ideal, err = w.solveIdealRequest(ctx, req, method, em); ideal {
			// The trace has no solver span; the attribute says why.
			rootSpan.SetAttr("ideal", true)
			break
		}
		switch method {
		case Optimal:
			sched, err = w.solveOptimalRequest(ctx, req, em)
		case Approx:
			sched, err = w.solveApproxRequest(ctx, req, em)
		case Baseline:
			sched, err = w.solveBaselineRequest(ctx, req, em)
		case Interval:
			sched, err = w.solveIntervalRequest(ctx, req, em)
		case Anytime:
			sched, err = w.solveAnytimeRequest(ctx, req, em)
		default:
			err = fmt.Errorf("checkmate: unknown method %q (valid: %s)", method, strings.Join(MethodNames(), ", "))
		}
	}
	// The anytime ladder stamps the rung that served; every other path
	// reports the dispatched method.
	if sched != nil && sched.Method == "" {
		sched.Method = method
	}
	em.done(doneBudget, sched, err)
	if err != nil {
		rootSpan.SetAttr("error", err.Error())
	}
	rootSpan.End()
	return sched, err
}

// Solve is the method form of the package-level Solve; req.Workload is
// overwritten with the receiver.
func (w *Workload) Solve(ctx context.Context, req Request) (*Schedule, error) {
	req.Workload = w
	return Solve(ctx, req)
}

// solveOptimalRequest runs the MILP path with progress hooks attached.
func (w *Workload) solveOptimalRequest(ctx context.Context, req Request, em *emitter) (*Schedule, error) {
	opt := req.options()
	res, err := core.SolveILP(ctx, core.Instance{G: w.Graph, Budget: req.Budget, Overhead: w.Overhead}, core.SolveOptions{
		TimeLimit:     opt.TimeLimit,
		RelGap:        opt.RelGap,
		Unpartitioned: opt.Unpartitioned,
		Threads:       opt.Threads,
		Progress:      em.coreHooks(),
	})
	if err != nil {
		return nil, err
	}
	return w.resultSchedule(ctx, res, req.Budget)
}

// solveIntervalRequest runs the retention-interval solver with progress
// hooks attached, mapping its result through the shared schedule surface.
// The interval result's Bound is admissible for the full MILP space, so
// Incumbent/BoundImproved gaps mean the same thing they do on the optimal
// path.
func (w *Workload) solveIntervalRequest(ctx context.Context, req Request, em *emitter) (*Schedule, error) {
	opt := req.options()
	if opt.Unpartitioned {
		return nil, fmt.Errorf("checkmate: Method %q requires frontier-advancing stages (Unpartitioned is %q-only)", Interval, Optimal)
	}
	hooks := em.coreHooks()
	iopt := interval.Options{TimeLimit: opt.TimeLimit, RelGap: opt.RelGap}
	if hooks.Started != nil {
		budget := req.Budget
		iopt.OnStart = func(vars, rows int) { hooks.Started(budget, vars, rows) }
		iopt.OnIncumbent = hooks.Incumbent
		iopt.OnBound = hooks.Bound
	}
	res, err := interval.Solve(ctx, core.Instance{G: w.Graph, Budget: req.Budget, Overhead: w.Overhead}, iopt)
	if err != nil {
		return nil, err
	}
	return w.resultSchedule(ctx, &core.Result{
		Sched: res.Sched, Cost: res.Cost, Status: res.Status, Bound: res.Bound,
		Nodes: res.Nodes, Vars: res.Vars, Rows: res.Rows,
		Solver: res.Solver, SolveTime: res.SolveTime,
	}, req.Budget)
}

// resultSchedule maps a core Result onto the public Schedule/error surface
// shared by single solves and sweep points.
func (w *Workload) resultSchedule(ctx context.Context, res *core.Result, budget int64) (*Schedule, error) {
	switch res.Status {
	case milp.StatusInfeasible:
		return nil, fmt.Errorf("%w: budget %d (min feasible ≥ %d)", ErrInfeasible, budget, w.MinBudget())
	case milp.StatusLimit:
		return nil, fmt.Errorf("%w: budget %d", ErrSolveLimit, budget)
	}
	return w.finish(ctx, res.Sched, res.Status == milp.StatusOptimal, budget, res)
}

// solveIdealRequest is the presolve step of Solve: when the budget fits
// core.IdealSched, that schedule is served as it stands, before any solver
// runs. It costs Σ C_i, which no schedule under (8a) undercuts, so it is an
// optimum of Optimal, Interval and Approx alike, and the first rung of
// Anytime serves it. The step applies to those four methods only: baselines
// keep their heuristic, and without frontier-advancing stages (Unpartitioned)
// the ideal cost is no lower bound. The plan is lowered once per Graph and
// Overhead (idealSchedule); each request gets its own copy. ideal reports
// whether the step applied; when it did not, nothing was done.
func (w *Workload) solveIdealRequest(ctx context.Context, req Request, method Method, em *emitter) (sched *Schedule, ideal bool, err error) {
	switch method {
	case Optimal, Interval, Approx, Anytime:
	default:
		return nil, false, nil
	}
	opt := req.options()
	start := time.Now()
	if !w.idealFits(req.Budget, opt) {
		return nil, false, nil
	}
	tctx, cancel := context.WithTimeout(ctx, opt.TimeLimit)
	defer cancel()
	if err := tctx.Err(); err != nil {
		return nil, true, solveCtxErr(err, "presolve")
	}
	sched, err = w.idealSchedule(tctx, req.Budget)
	if err != nil {
		return nil, true, err
	}
	if err := tctx.Err(); err != nil {
		return nil, true, solveCtxErr(err, "presolve")
	}
	// Approx never proves optimality; the presolve keeps it that way.
	sched.Optimal = method != Approx
	if method == Anytime {
		sched.Method = Optimal // the ladder's first rung, not degraded
	}
	sched.SolveTime = time.Since(start)
	em.started(req.Budget, 0, 0)
	em.incumbent(sched.Cost, sched.Cost)
	return sched, true, nil
}

// solveApproxRequest runs the two-phase-rounding ε-search under the
// request's time limit, reporting feasible roundings as incumbents.
func (w *Workload) solveApproxRequest(ctx context.Context, req Request, em *emitter) (*Schedule, error) {
	opt := req.options()
	// The ε-search has no internal wall clock; Request.TimeLimit is
	// enforced as a context deadline (it previously went ignored on this
	// path — callers had to wrap the context themselves).
	tctx, cancel := context.WithTimeout(ctx, opt.TimeLimit)
	defer cancel()
	em.started(req.Budget, 0, 0)
	best := math.Inf(1)
	r, err := approx.SolveWithSearch(tctx, core.Instance{G: w.Graph, Budget: req.Budget, Overhead: w.Overhead}, approx.Options{
		Progress: func(eps float64, r *approx.Result) {
			if r.Feasible && r.Cost < best {
				best = r.Cost
				em.incumbent(r.Cost, math.Inf(-1))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	sched, err := w.finish(ctx, r.Sched, false, req.Budget, nil)
	if err != nil {
		return nil, err
	}
	// The ε-search's LP work rides in the same counter bag the optimal path
	// uses, so it flows through Done events, /v1/stats, and the benchmark
	// record unchanged.
	sched.Solver = milp.Counters{
		SimplexIters:   r.Search.SimplexIters,
		DualIters:      r.Search.DualIters,
		DualStartIters: r.Search.DualStartIters,
		EpsSolves:      int64(r.Search.LPSolves),
		EpsWarmHits:    int64(r.Search.WarmHits),
	}
	return sched, nil
}

// BaselineNames lists the heuristics Request.Baseline accepts, the
// prior-work strategies of paper Table 1 generalized to non-linear graphs.
func BaselineNames() []string {
	return []string{
		"checkpoint-all",
		"chen-sqrt(n)", "ap-sqrt(n)", "linearized-sqrt(n)",
		"chen-greedy", "ap-greedy", "linearized-greedy",
		"griewank-logn",
	}
}

// baselineGreedySteps is the hyperparameter-sweep resolution of the greedy
// baselines: the cheapest budget-feasible point across the sweep wins.
const baselineGreedySteps = 12

// solveBaselineRequest computes a prior-work heuristic schedule and checks
// it against the budget. Baselines are static policies — no search, so the
// only events are Started and the final Done. The heuristics themselves
// are not interruptible mid-computation, so cancellation and the time
// limit are honored at the step boundaries (they are milliseconds-scale on
// any graph the system admits).
func (w *Workload) solveBaselineRequest(ctx context.Context, req Request, em *emitter) (*Schedule, error) {
	tctx, cancel := context.WithTimeout(ctx, req.options().TimeLimit)
	defer cancel()
	if err := tctx.Err(); err != nil {
		return nil, solveCtxErr(err, "baseline")
	}
	tg, err := w.BaselineTarget()
	if err != nil {
		return nil, err
	}
	name := req.Baseline
	if name == "" {
		name = "checkpoint-all"
	}
	em.started(req.Budget, 0, 0)
	var pts []baselines.Point
	switch name {
	case "checkpoint-all":
		pts = []baselines.Point{baselines.CheckpointAll(tg)}
	case "chen-sqrt(n)":
		pt, err := baselines.ChenSqrtN(tg)
		if err != nil {
			return nil, err
		}
		pts = []baselines.Point{pt}
	case "ap-sqrt(n)":
		pts = []baselines.Point{baselines.APSqrtN(tg)}
	case "linearized-sqrt(n)":
		pts = []baselines.Point{baselines.LinearizedSqrtN(tg)}
	case "chen-greedy", "ap-greedy", "linearized-greedy":
		pts, err = baselines.GreedySweep(tg, name, baselineGreedySteps)
		if err != nil {
			return nil, err
		}
	case "griewank-logn":
		pts, err = baselines.RevolveSweep(tg, 0)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("checkmate: unknown baseline %q (valid: %v)", name, BaselineNames())
	}
	if err := tctx.Err(); err != nil {
		return nil, solveCtxErr(err, "baseline")
	}
	var best *baselines.Point
	for i := range pts {
		pt := &pts[i]
		if pt.PeakBytes > float64(req.Budget) {
			continue
		}
		if best == nil || pt.Cost < best.Cost {
			best = pt
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: baseline %q needs more than budget %d", ErrInfeasible, name, req.Budget)
	}
	em.incumbent(best.Cost, math.Inf(-1))
	return w.finish(tctx, best.Sched, false, req.Budget, nil)
}

// solveCtxErr maps the context termination of a step that cannot be
// interrupted midway (a baseline heuristic, the presolve) onto the
// solve-error taxonomy: a deadline is the time limit expiring (ErrSolveLimit,
// like the optimal search), cancellation is the caller's and passes through.
func solveCtxErr(err error, step string) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %s time limit", ErrSolveLimit, step)
	}
	return err
}

// solveSweepRequest solves every budget of a sweep request warm-started,
// emitting a SweepPoint event per completed budget, and returns the
// schedule of the smallest feasible budget along with that budget.
func (w *Workload) solveSweepRequest(ctx context.Context, req Request, em *emitter) (*Schedule, int64, error) {
	opt := req.options()
	var (
		best       *Schedule
		bestBudget int64
		finishErr  error
	)
	hooks := em.coreHooks()
	hooks.SweepPoint = func(i int, budget int64, res *core.Result) {
		pt := SweepPoint{Budget: budget}
		s, err := w.resultSchedule(ctx, res, budget)
		switch {
		case err == nil:
			pt.Schedule = s
			// The sweep's headline result: the tightest budget that still
			// admits a schedule.
			if best == nil || budget < bestBudget {
				best, bestBudget = s, budget
			}
		default:
			pt.Err = err
			// A solver-returned-invalid-schedule failure is a whole-sweep
			// defect, unlike per-point infeasibility or limit exhaustion.
			if !isPointError(err) && finishErr == nil {
				finishErr = err
			}
		}
		em.sweepPoint(i, &pt)
	}
	_, err := core.SweepILP(ctx, core.Instance{G: w.Graph, Overhead: w.Overhead}, req.Budgets, core.SolveOptions{
		TimeLimit:     opt.TimeLimit,
		RelGap:        opt.RelGap,
		Unpartitioned: opt.Unpartitioned,
		Threads:       opt.Threads,
		Progress:      hooks,
	})
	if err != nil {
		return nil, 0, err
	}
	if finishErr != nil {
		return nil, 0, finishErr
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: no feasible budget among %d sweep points", ErrInfeasible, len(req.Budgets))
	}
	return best, bestBudget, nil
}

// isPointError reports whether err is a per-point outcome (infeasible or
// limit-exhausted) rather than a whole-sweep failure.
func isPointError(err error) bool {
	return errors.Is(err, ErrInfeasible) || errors.Is(err, ErrSolveLimit)
}

// emitter serializes and rate-limits event delivery to the request's
// Observer and Events channel. Solver hooks may fire concurrently (parallel
// branch-and-bound workers); the mutex keeps delivery ordered.
type emitter struct {
	obs      Observer
	ch       chan<- Event
	interval time.Duration
	start    time.Time

	mu         sync.Mutex
	budget     int64 // budget of the in-flight (sweep) point
	ideal      float64
	lastEmit   time.Time
	incumbents int
	lastObj    float64 // current incumbent objective, +Inf before any
}

func newEmitter(req Request) *emitter {
	e := &emitter{
		obs:      req.Observer,
		ch:       req.Events,
		interval: req.ProgressInterval,
		start:    time.Now(),
		budget:   req.Budget,
		lastObj:  math.Inf(1),
	}
	if e.interval == 0 {
		e.interval = DefaultProgressInterval
	}
	if req.Workload != nil && req.Workload.Graph != nil {
		e.ideal = req.Workload.Graph.TotalCost()
	}
	return e
}

// active reports whether anyone is listening; when false every hook is nil
// so the solver pays nothing for the event machinery.
func (e *emitter) active() bool { return e.obs != nil || e.ch != nil }

// deliver stamps and sends one event. Caller holds e.mu (delivery stays
// inside the lock so concurrent solver hooks cannot reorder events).
func (e *emitter) deliver(ev Event) {
	ev.Elapsed = time.Since(e.start)
	if ev.Budget == 0 {
		ev.Budget = e.budget
	}
	if e.obs != nil {
		e.obs.OnEvent(ev)
	}
	if e.ch != nil {
		select {
		case e.ch <- ev:
		default: // never stall the solver on a full channel
		}
	}
}

// allowProgress implements the Incumbent/BoundImproved rate limit. Caller
// holds e.mu.
func (e *emitter) allowProgress(now time.Time) bool {
	if e.interval < 0 || e.lastEmit.IsZero() || now.Sub(e.lastEmit) >= e.interval {
		e.lastEmit = now
		return true
	}
	return false
}

func (e *emitter) started(budget int64, vars, rows int) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget = budget
	e.deliver(Event{Kind: EventStarted, Budget: budget, Vars: vars, Rows: rows})
}

func (e *emitter) incumbent(obj, bound float64) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The first incumbent always goes out — a deadline-bound caller must
	// learn a feasible schedule exists even on a sub-interval solve.
	if e.incumbents > 0 && !e.allowProgress(time.Now()) {
		return
	}
	e.incumbents++
	e.lastObj = obj
	ev := Event{Kind: EventIncumbent, Objective: obj, Bound: bound, Gap: gapOf(obj, bound)}
	if e.ideal > 0 {
		ev.Overhead = obj / e.ideal
	}
	e.deliver(ev)
}

func (e *emitter) bound(bound float64) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.allowProgress(time.Now()) {
		return
	}
	// Gap is measured against the current incumbent; +Inf while no feasible
	// schedule exists yet.
	gap := math.Inf(1)
	if !math.IsInf(e.lastObj, 1) {
		gap = gapOf(e.lastObj, bound)
	}
	e.deliver(Event{Kind: EventBound, Bound: bound, Gap: gap})
}

// degraded announces an anytime-ladder fall. Never rate-limited — a
// degradation is load-bearing for a deadline-bound caller — and it resets
// the incumbent count so the next rung's first incumbent goes out too.
func (e *emitter) degraded(from, to Method, reason string) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.incumbents = 0
	e.lastObj = math.Inf(1)
	e.deliver(Event{Kind: EventDegraded, From: from, To: to, Reason: reason})
}

func (e *emitter) sweepPoint(i int, pt *SweepPoint) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.incumbents = 0 // the next point's first incumbent is never suppressed
	e.lastObj = math.Inf(1)
	e.deliver(Event{Kind: EventSweepPoint, Budget: pt.Budget, Index: i, Point: pt})
}

func (e *emitter) done(budget int64, sched *Schedule, err error) {
	if !e.active() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := Event{Kind: EventDone, Budget: budget, Schedule: sched, Err: err}
	if sched != nil {
		ev.Objective = sched.Cost
		ev.Overhead = sched.Overhead()
	}
	e.deliver(ev)
}

// coreHooks adapts the emitter onto the core solver's progress interface.
func (e *emitter) coreHooks() core.ProgressHooks {
	if !e.active() {
		return core.ProgressHooks{}
	}
	return core.ProgressHooks{
		Started:   e.started,
		Incumbent: e.incumbent,
		Bound:     e.bound,
	}
}

// gapOf mirrors the solver's relative-gap definition: +Inf until a bound
// is proven.
func gapOf(obj, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	return (obj - bound) / math.Max(math.Abs(obj), 1e-9)
}
