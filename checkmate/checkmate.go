// Package checkmate is the public API of the Checkmate reproduction: optimal
// tensor rematerialization for data-flow graphs under a memory budget
// (Jain et al., "Checkmate: Breaking the Memory Wall with Optimal Tensor
// Rematerialization", MLSys 2020).
//
// The typical pipeline mirrors Figure 2 of the paper:
//
//	wl, _ := checkmate.Load("unet", checkmate.Options{Batch: 4})  // user-specified architecture
//	sched, _ := checkmate.Solve(ctx, checkmate.Request{           // LP construction and optimization
//		Workload: wl, Budget: 16 << 30,
//	})
//	plan := sched.Plan                                            // rebuilt static graph / execution plan
//
// Solve is the single entry point for every method: Request.Method selects
// the exact MILP (Optimal, the default), the polynomial-time two-phase LP
// rounding (Approx, paper Section 5), or a prior-work heuristic of Table 1
// (Baseline); Request.Budgets switches to a warm-started budget sweep.
// A Request may carry an Observer (or an Events channel) that receives
// typed progress events — Started, Incumbent, BoundImproved, SweepPoint,
// Done — while the solver runs, exposing the anytime incumbent/bound
// trajectory of the branch-and-bound search.
package checkmate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autodiff"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/milp"
	"repro/internal/nets"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// Options configure workload construction.
type Options struct {
	// Batch is the global batch size (default 1).
	Batch int
	// Device selects the hardware cost model preset: "v100" (default),
	// "tpu", "cpu".
	Device string
	// FLOPsCost switches the cost model to static FLOP counting, as the
	// paper uses for its maximum-batch-size and approximation-ratio
	// experiments (Sections 6.4–6.5).
	FLOPsCost bool
	// CoarseSegments optionally contracts the forward graph to roughly this
	// many nodes (block granularity) to bound MILP size.
	CoarseSegments int
	// Input overrides the model's default input resolution.
	Input nets.Shape
}

// DevicePresets lists the hardware cost-model names Options.Device accepts.
func DevicePresets() []string { return []string{"v100", "tpu", "cpu"} }

func (o Options) model() (costmodel.Model, error) {
	if o.FLOPsCost {
		return costmodel.NewFLOPs(), nil
	}
	switch o.Device {
	case "", "v100":
		return costmodel.NewRoofline(costmodel.V100()), nil
	case "tpu":
		return costmodel.NewRoofline(costmodel.TPUv2Core()), nil
	case "cpu":
		return costmodel.NewRoofline(costmodel.CPU()), nil
	default:
		// A typo must not silently cost-model for the wrong hardware.
		return nil, fmt.Errorf("checkmate: unknown device %q (valid presets: %s)",
			o.Device, strings.Join(DevicePresets(), ", "))
	}
}

// Workload is a model ready to be scheduled: the forward network, its
// differentiated training graph, and memory accounting.
type Workload struct {
	Net *nets.Net
	AD  *autodiff.Result
	// Graph is the joint forward+backward training DAG the optimizer
	// schedules.
	Graph *graph.Graph
	// Overhead is M_input + 2·M_param (eq. (2)).
	Overhead int64

	// peaks memoizes IdealPeak, CheckpointAllPeak and the lowered ideal
	// schedule for the Graph and Overhead they were computed from.
	peaks atomic.Pointer[peaks]
}

type peaks struct {
	g                    *graph.Graph
	overhead             int64
	ideal, checkpointAll int64

	// lowered is core.IdealSched lowered to its plan and simulated, built
	// by the first presolved request (idealSchedule). Admission and the
	// estimates read only the peaks, so they never pay for it.
	lowerOnce sync.Once
	lowered   *Schedule
	lowerErr  error
}

// Models lists the available architecture names.
func Models() []string { return nets.Names() }

// Load builds a named model from the zoo and differentiates it.
func Load(model string, opt Options) (*Workload, error) {
	if opt.Batch == 0 {
		opt.Batch = 1
	}
	cm, err := opt.model()
	if err != nil {
		return nil, err
	}
	net, err := nets.ByName(model, nets.Config{
		Model: cm, Batch: opt.Batch,
		CoarseSegments: opt.CoarseSegments, Input: opt.Input,
	})
	if err != nil {
		return nil, err
	}
	return FromNet(net)
}

// FromNet wraps an already-built network.
func FromNet(net *nets.Net) (*Workload, error) {
	ad, err := net.Training(autodiff.Options{})
	if err != nil {
		return nil, err
	}
	if err := checkBytes(ad.Graph, net.Overhead()); err != nil {
		return nil, err
	}
	return &Workload{Net: net, AD: ad, Graph: ad.Graph, Overhead: net.Overhead()}, nil
}

// FromGraph wraps a raw training DAG (already containing backward nodes)
// with a constant memory overhead — the fully general entry point.
func FromGraph(g *graph.Graph, overhead int64) (*Workload, error) {
	if err := g.Validate(true); err != nil {
		return nil, err
	}
	if err := checkBytes(g, overhead); err != nil {
		return nil, err
	}
	return &Workload{Graph: g, Overhead: overhead}, nil
}

// maxBytes bounds a workload's Overhead + Σ Mem. Up to 2^53 every memory
// sum is exact both in the int64 accounting of plans and in the float64
// accounting of the formulations, so a plan's peak is the peak the solvers
// and IdealPeak saw.
const maxBytes = 1 << 53

// checkBytes refuses a negative overhead and an Overhead + Σ Mem above
// maxBytes. Node sizes are non-negative (graph.Validate), so the running sum
// cannot overflow before it passes the bound.
func checkBytes(g *graph.Graph, overhead int64) error {
	if overhead < 0 {
		return fmt.Errorf("checkmate: memory overhead %d is negative", overhead)
	}
	total := overhead
	for i := range g.Len() {
		mem := g.Node(graph.NodeID(i)).Mem
		if mem > maxBytes-total {
			return fmt.Errorf("checkmate: overhead and node sizes sum past 2^53 bytes, beyond what the memory accounting holds exactly")
		}
		total += mem
	}
	return nil
}

// Fingerprint returns the canonical content hash of the scheduling problem
// this workload poses: the training graph's topology, costs and sizes plus
// the fixed memory overhead. Two workloads with equal fingerprints admit
// exactly the same schedules, so solved plans can be cached and shared
// across processes keyed by this value.
func (w *Workload) Fingerprint() graph.Fingerprint {
	d := graph.NewDigest()
	d.String("workload/v1")
	w.Graph.WriteDigest(d)
	d.Int64(w.Overhead)
	return d.Sum()
}

// SolveKey extends Fingerprint with the budget and every solver option that
// can change the resulting schedule — the complete cache key for a solve.
// approximate distinguishes SolveApprox results from SolveOptimal ones.
func (w *Workload) SolveKey(budget int64, opt SolveOptions, approximate bool) graph.Fingerprint {
	d := graph.NewDigest()
	d.String("solve/v1")
	w.Graph.WriteDigest(d)
	d.Int64(w.Overhead)
	d.Int64(budget)
	d.Bool(approximate)
	// TimeLimit is part of the key for both solvers: it bounds the optimal
	// search directly and the approximation via context timeout, so requests
	// with different limits may legitimately produce different schedules.
	d.Int64(int64(opt.TimeLimit))
	if !approximate {
		d.Float64(opt.RelGap)
		d.Bool(opt.Unpartitioned)
		// Parallel search may return a different (equally optimal) schedule
		// among cost ties, so Threads is part of the key. Serial solves
		// (0 or 1) are not digested, keeping keys from older stores valid.
		if opt.Threads > 1 {
			d.Int64(int64(opt.Threads))
		}
	}
	return d.Sum()
}

// EstimateSolveCost predicts the expense of solving this workload at the
// given budget, in abstract cost units roughly proportional to solver
// milliseconds on a reference core. It is deliberately cheap (no LP is
// built) and deliberately rough: its consumer is admission control in the
// planning service, which needs relative ordering — "this request is ~1000×
// that one" — not wall-clock accuracy, and recalibrates the scale online
// from observed solve times.
//
// The shape of the estimate follows the solver's actual cost drivers:
//
//   - Graph size dominates. The MILP has Θ(n²) variables and rows
//     (Section 4.7), and simplex-style solvers cost superlinearly in problem
//     size, so the base term grows as n^2.5.
//   - Budget tightness multiplies. Near the checkpoint-all peak the LP
//     relaxation is nearly integral and branch-and-bound closes immediately;
//     near the minimum feasible budget the search tree deepens. Tightness
//     scales the estimate by up to 10×.
//   - Solver choice scales. The two-phase LP rounding (Section 5) skips the
//     integer search; proving exact optimality (RelGap ≈ 0) costs extra
//     branch-and-bound relative to accepting a gap; parallel tree search
//     (Threads) divides wall-clock by a conservatively assumed ~50%
//     efficiency.
//   - A budget at or above IdealPeak costs the floor, unless Unpartitioned:
//     Solve serves it with the ideal schedule and builds no LP, and a
//     baseline there is a closed-form heuristic. Estimating such a request
//     as a search would teach the service's calibrator that searches are
//     cheap.
//
// The result is clamped to [1, TimeLimit in ms]: the time limit is a hard
// ceiling on how much work the solver is allowed to do.
func (w *Workload) EstimateSolveCost(budget int64, opt SolveOptions, approximate bool) float64 {
	n := float64(w.Graph.Len())
	if n <= 0 || w.idealFits(budget, opt) {
		return 1
	}
	// n^2.5, scaled so a ~100-node graph lands near one second's worth of
	// units before calibration.
	base := n * n * math.Sqrt(n) / 100

	peak := float64(w.CheckpointAllPeak())
	minB := float64(w.MinBudget())
	tightness := 0.0
	if peak > minB {
		tightness = (peak - float64(budget)) / (peak - minB)
	}
	if tightness < 0 {
		tightness = 0
	}
	if tightness > 1 {
		tightness = 1
	}
	cost := base * (1 + 9*tightness*tightness)

	if approximate {
		cost *= 0.25
	} else if opt.RelGap < 1e-4 {
		// Proving optimality (the default) pays for the full gap-closing
		// search; a caller-accepted gap stops early.
		cost *= 2
	}
	if !approximate && opt.Threads > 1 {
		// Parallel tree search shortens the wall clock the admission budget
		// is calibrated against — but tree shapes rarely keep every worker
		// busy, so assume a deliberately conservative ~50% efficiency.
		// Under-discounting only delays admission; over-discounting admits
		// more concurrent solver work than the budget intends, each solve
		// additionally holding Threads cores.
		cost /= 1 + 0.5*float64(opt.Threads-1)
	}

	if opt.TimeLimit > 0 {
		if lim := float64(opt.TimeLimit.Milliseconds()); cost > lim {
			cost = lim
		}
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

// idealFits reports whether the budget fits core.IdealSched, so that no
// solver search is needed. Without frontier-advancing stages (8a) the ideal
// cost is no lower bound, so Unpartitioned solves always search.
func (w *Workload) idealFits(budget int64, opt SolveOptions) bool {
	return !opt.Unpartitioned && budget >= w.IdealPeak()
}

// autoDeadlineHeadroom is the overrun factor at which Auto reroutes to the
// anytime ladder: the preferred method must be projected to cost more than
// this multiple of the request deadline before Auto gives up on it. The
// admission estimates are deliberately rough, so only a clear overrun —
// not estimation noise — changes the routing.
const autoDeadlineHeadroom = 4

// autoResolve maps Method Auto onto the concrete method it runs for this
// workload, budget, and option set: Optimal at or below AutoMethodThreshold
// nodes, Interval above — unless the preferred method's projected solve
// cost clearly overruns the deadline, in which case the request routes to
// the Anytime fallback ladder so a tight deadline degrades schedule quality
// instead of failing with ErrSolveLimit. The decision is a pure function of
// the workload and the request knobs, so routing — and therefore cache
// keys — agree across processes.
func (w *Workload) autoResolve(budget int64, opt SolveOptions) Method {
	m := Optimal
	if w.Graph.Len() > AutoMethodThreshold {
		m = Interval
	}
	// Unpartitioned is Optimal-only; the fallback rungs would silently solve
	// a different problem, so Auto never reroutes such a request.
	if opt.Unpartitioned {
		return m
	}
	if opt.TimeLimit == 0 {
		opt.TimeLimit = 60 * time.Second
	}
	// Compare the deadline against the method's unclamped projection — the
	// clamp in EstimateSolveCostFor exists precisely to hide the overrun
	// this decision needs to see.
	unclamped := opt
	unclamped.TimeLimit = 0
	if w.EstimateSolveCostFor(m, budget, unclamped) > autoDeadlineHeadroom*float64(opt.TimeLimit.Milliseconds()) {
		return Anytime
	}
	return m
}

// SolveKeyFor is the method-aware schedule-cache key: the complete digest
// of a solve under the given method. Optimal, Approx, and Baseline map onto
// the original SolveKey digests, so caches populated before methods were
// first-class stay valid; Interval schedules live in their own digest
// domain (the interval solver can legitimately return a different — still
// budget-feasible — schedule than the MILP), and Anytime in its own (the
// ladder may serve a schedule from any rung). Auto resolves exactly as
// Request.Resolve does, so routing and keys agree across processes.
func (w *Workload) SolveKeyFor(m Method, budget int64, opt SolveOptions) graph.Fingerprint {
	if m == Auto {
		m = w.autoResolve(budget, opt)
	}
	switch m {
	case Interval:
		d := graph.NewDigest()
		d.String("interval/v1")
		w.Graph.WriteDigest(d)
		d.Int64(w.Overhead)
		d.Int64(budget)
		// Both knobs bound the interval search and change which incumbent it
		// returns, exactly like the optimal path.
		d.Int64(int64(opt.TimeLimit))
		d.Float64(opt.RelGap)
		return d.Sum()
	case Anytime:
		d := graph.NewDigest()
		d.String("anytime/v1")
		w.Graph.WriteDigest(d)
		d.Int64(w.Overhead)
		d.Int64(budget)
		// The deadline shapes the ladder's slices — and thereby which rung
		// serves — so it is as much a part of the result's identity as the
		// solver knobs the rungs inherit.
		d.Int64(int64(opt.TimeLimit))
		d.Float64(opt.RelGap)
		if opt.Threads > 1 {
			d.Int64(int64(opt.Threads))
		}
		return d.Sum()
	default:
		return w.SolveKey(budget, opt, m == Approx)
	}
}

// EstimateSolveCostFor is the method-aware admission estimate. Optimal,
// Approx, and Baseline defer to EstimateSolveCost; the interval formulation
// carries O(|E|) window variables instead of Θ(n²) binaries and its
// propagation plus warm-started LP bounds keep per-node work near-linear,
// so its base grows as n^1.5 — the scaling that makes hundreds-of-nodes
// graphs admissible at all.
func (w *Workload) EstimateSolveCostFor(m Method, budget int64, opt SolveOptions) float64 {
	if m == Auto {
		m = w.autoResolve(budget, opt)
	}
	if m == Anytime {
		// The ladder may spend the entire deadline across its rungs, so
		// admission budgets for the worst case: the optimal-path cost,
		// clamped at the deadline like any other method.
		aopt := opt
		if aopt.TimeLimit == 0 {
			aopt.TimeLimit = 60 * time.Second
		}
		return w.EstimateSolveCost(budget, aopt, false)
	}
	if m != Interval {
		return w.EstimateSolveCost(budget, opt, m == Approx)
	}
	n := float64(w.Graph.Len())
	if n <= 0 || w.idealFits(budget, opt) {
		return 1
	}
	base := n * math.Sqrt(n) / 10

	peak := float64(w.CheckpointAllPeak())
	minB := float64(w.MinBudget())
	tightness := 0.0
	if peak > minB {
		tightness = (peak - float64(budget)) / (peak - minB)
	}
	if tightness < 0 {
		tightness = 0
	}
	if tightness > 1 {
		tightness = 1
	}
	cost := base * (1 + 9*tightness*tightness)
	if opt.TimeLimit > 0 {
		if lim := float64(opt.TimeLimit.Milliseconds()); cost > lim {
			cost = lim
		}
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

// CheckpointAllPeak returns the peak memory of the checkpoint-all policy,
// which retains every value to the end of the schedule. It is the top of the
// budget range that sweeps and benchmarks span. Rematerialization already
// becomes unnecessary at IdealPeak, which is never higher. The value is
// computed once per Graph and Overhead.
func (w *Workload) CheckpointAllPeak() int64 { return w.peaksMemo().checkpointAll }

// IdealPeak returns the peak memory of core.IdealSched, the leanest schedule
// that computes every node once. At any budget at or above it that schedule
// is optimal, and Solve serves it without running a solver (see Request).
// The value is computed once per Graph and Overhead.
func (w *Workload) IdealPeak() int64 { return w.peaksMemo().ideal }

// peaksMemo returns the memo entry, computing both peaks in a new one if the
// Graph or Overhead changed since the entry was made. Concurrent first calls
// settle on one entry, so the ideal plan is lowered once.
func (w *Workload) peaksMemo() *peaks {
	old := w.peaks.Load()
	if old != nil && old.g == w.Graph && old.overhead == w.Overhead {
		return old
	}
	g, overhead := w.Graph, w.Overhead
	m := &peaks{
		g: g, overhead: overhead,
		ideal:         int64(core.IdealSched(g).Peak(g, overhead)),
		checkpointAll: int64(core.CheckpointAll(g).Peak(g, overhead)),
	}
	if !w.peaks.CompareAndSwap(old, m) {
		return w.peaksMemo()
	}
	return m
}

// idealSchedule serves core.IdealSched at budget. The memo entry lowers it
// once per Graph and Overhead, so only the trace of the request that lowers
// it holds a plan span. Every call runs the budget check finish runs and
// returns a copy that the caller owns.
func (w *Workload) idealSchedule(ctx context.Context, budget int64) (*Schedule, error) {
	m := w.peaksMemo()
	m.lowerOnce.Do(func() {
		m.lowered, m.lowerErr = lower(ctx, m.g, m.overhead, core.IdealSched(m.g))
	})
	if m.lowerErr != nil {
		return nil, m.lowerErr
	}
	if err := checkBudget(m.lowered.PeakBytes, budget); err != nil {
		return nil, err
	}
	return m.lowered.clone(), nil
}

// MinBudget returns a lower bound on any feasible budget.
func (w *Workload) MinBudget() int64 {
	return core.MinBudgetLowerBound(w.Graph, w.Overhead)
}

// Sentinel errors returned by the solve entry points, distinguishable with
// errors.Is. Infeasibility is a property of the instance (retrying cannot
// help); a limit error means the solver ran out of time or nodes and a
// retry with looser limits may succeed.
var (
	// ErrInfeasible reports that no schedule fits the memory budget.
	ErrInfeasible = errors.New("checkmate: no schedule fits the memory budget")
	// ErrSolveLimit reports that no feasible schedule was found before the
	// solver's limits were exhausted.
	ErrSolveLimit = errors.New("checkmate: no feasible schedule found within solver limits")
)

// SolveOptions tune the optimal solver.
type SolveOptions struct {
	// TimeLimit mirrors the paper's 3600 s solver limit (default 60 s).
	TimeLimit time.Duration
	// RelGap is the accepted relative optimality gap (default 1e-6: solve
	// to proven optimality).
	RelGap float64
	// Unpartitioned disables frontier-advancing stages (Appendix A).
	Unpartitioned bool
	// Threads is the number of parallel branch-and-bound workers (0 or 1 =
	// serial). Any value proves the same optimal objective; only wall-clock
	// and, among cost ties, the particular schedule may differ.
	Threads int
}

// DegradedCode classifies why a schedule was served degraded. The type is a
// closed vocabulary — every value is one of the constants below — so its
// cardinality is bounded by construction and it is safe to use directly as
// a metric label.
type DegradedCode string

const (
	// DegradedPanic: an earlier rung's solver panicked and was contained.
	DegradedPanic DegradedCode = "panic"
	// DegradedLimit: an earlier rung hit its node or time limit.
	DegradedLimit DegradedCode = "limit"
	// DegradedInfeasible: an earlier rung proved its sub-problem infeasible.
	DegradedInfeasible DegradedCode = "infeasible"
	// DegradedSkipped: an earlier rung was skipped as hopeless for its slice.
	DegradedSkipped DegradedCode = "skipped"
	// DegradedError: an earlier rung failed for any other reason.
	DegradedError DegradedCode = "error"
	// DegradedUnproven: the serving rung adopted an incumbent at the
	// deadline without an optimality proof.
	DegradedUnproven DegradedCode = "unproven"
	// DegradedFleetLocal: in fleet mode, the key's rendezvous owner was
	// unreachable, so a non-owner solved locally. The schedule itself may be
	// optimal — the degradation is that fleet-wide single-flight dedup and
	// the owner's warm caches were bypassed, so the answer cost more than it
	// should have and a duplicate may exist on the owner.
	DegradedFleetLocal DegradedCode = "fleet_local"
)

// Schedule is a solved rematerialization schedule with its execution plan.
type Schedule struct {
	Sched *core.Sched
	Plan  *schedule.Plan
	// Method is the solver method that produced the schedule. For Auto and
	// Anytime requests it is the concrete method that actually served the
	// result (the winning ladder rung for Anytime), never Auto or Anytime
	// itself.
	Method Method
	// Degraded reports that graceful degradation was engaged: the schedule
	// was served by a fallback rung after an earlier rung failed or was
	// skipped, or it is an incumbent adopted at the deadline without an
	// optimality proof. Quality may be below what an unconstrained solve
	// would return; budget feasibility is unaffected.
	Degraded bool
	// DegradedCode classifies the first deviation from a full solve.
	// Empty when Degraded is false.
	DegradedCode DegradedCode
	// DegradedReason is the human-readable account of what the ladder did:
	// each rung's outcome and which one finally served. Empty when Degraded
	// is false.
	DegradedReason string
	// Cost is the per-iteration compute cost (seconds under the roofline
	// model, FLOPs under the FLOPs model).
	Cost float64
	// IdealCost is the checkpoint-all cost (every node once): Cost/IdealCost
	// is the paper's "overhead ×" axis.
	IdealCost float64
	// PeakBytes is the true peak memory including overhead.
	PeakBytes int64
	// Optimal reports whether optimality was proven.
	Optimal bool
	// Stats from the solve.
	SolveTime time.Duration
	Nodes     int
	LPVars    int
	LPRows    int
	// Solver aggregates simplex and branch-and-bound performance counters
	// (pivot counts, warm-start hit rate, node throughput); zero for
	// approximate solves and cache hits.
	Solver milp.Counters
}

// Overhead returns the relative execution overhead versus the ideal
// checkpoint-all policy (1.0 = no recomputation cost).
func (s *Schedule) Overhead() float64 { return s.Cost / s.IdealCost }

// finish turns a solved schedule into its execution plan and simulates the
// plan. Every method's schedule passes through here or through
// idealSchedule, which shares its lowering and its budget check, so this is
// where a plan that would overrun budget is refused rather than served.
func (w *Workload) finish(ctx context.Context, s *core.Sched, optimal bool, budget int64, res *core.Result) (*Schedule, error) {
	out, err := lower(ctx, w.Graph, w.Overhead, s)
	if err != nil {
		return nil, err
	}
	if err := checkBudget(out.PeakBytes, budget); err != nil {
		return nil, err
	}
	out.Optimal = optimal
	if res != nil {
		out.SolveTime = res.SolveTime
		out.Nodes = res.Nodes
		out.LPVars = res.Vars
		out.LPRows = res.Rows
		out.Solver = res.Solver
	}
	return out, nil
}

// lower generates a schedule's plan (Algorithm 1), hoists its deallocations
// (Section 4.9) and simulates it for its peak. The Schedule it returns is
// checked against no budget and claims no proof.
func lower(ctx context.Context, g *graph.Graph, overhead int64, s *core.Sched) (*Schedule, error) {
	_, span := telemetry.StartSpan(ctx, "plan")
	defer span.End()
	plan, err := schedule.Generate(g, s)
	if err != nil {
		return nil, err
	}
	plan = schedule.MoveDeallocationsEarlier(g, plan)
	sim, err := schedule.Simulate(g, plan, overhead)
	if err != nil {
		return nil, err
	}
	return &Schedule{Sched: s, Plan: plan, Cost: s.Cost(g), IdealCost: g.TotalCost(), PeakBytes: sim.PeakBytes}, nil
}

// checkBudget refuses a plan that peaks over its budget.
func checkBudget(peak, budget int64) error {
	if peak > budget {
		return fmt.Errorf("checkmate: plan peaks at %d bytes, over its budget of %d", peak, budget)
	}
	return nil
}

// clone copies s with its own schedule matrices and plan statements.
func (s *Schedule) clone() *Schedule {
	out := *s
	src, edges := s.Sched, 0
	if src.N > 0 {
		edges = len(src.Free[0])
	}
	out.Sched = core.NewSched(src.N, edges)
	for t := range src.N {
		copy(out.Sched.R[t], src.R[t])
		copy(out.Sched.S[t], src.S[t])
		copy(out.Sched.Free[t], src.Free[t])
	}
	out.Plan = &schedule.Plan{Stmts: slices.Clone(s.Plan.Stmts), NumRegs: s.Plan.NumRegs, RegNode: slices.Clone(s.Plan.RegNode)}
	return &out
}

// SweepPoint is one budget's outcome within a sweep request
// (Request.Budgets), delivered as Event.Point.
type SweepPoint struct {
	Budget int64
	// Schedule is nil when the budget is infeasible or the solver hit its
	// limits without a feasible schedule; Err then holds the corresponding
	// ErrInfeasible/ErrSolveLimit sentinel.
	Schedule *Schedule
	Err      error
}

// BaselineTarget adapts the workload for package baselines.
func (w *Workload) BaselineTarget() (*baselines.Target, error) {
	if w.AD == nil {
		return nil, fmt.Errorf("checkmate: baselines need a forward graph (use Load or FromNet)")
	}
	return &baselines.Target{AD: w.AD, Fwd: w.Net.Fwd, Overhead: w.Overhead}, nil
}

// MemoryTrace simulates the schedule and returns memory-in-use after every
// plan statement (the Figure 1 curve).
func (w *Workload) MemoryTrace(s *Schedule) ([]int64, error) {
	sim, err := schedule.Simulate(w.Graph, s.Plan, w.Overhead)
	if err != nil {
		return nil, err
	}
	return sim.Trace, nil
}
