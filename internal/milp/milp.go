// Package milp implements a mixed-integer linear program solver by
// branch-and-bound over the LP relaxation from package lp.
//
// The paper solves its rematerialization MILP (Section 4.7) with Gurobi or
// COIN-OR Branch-and-Cut under a wall-clock limit; this package plays that
// role. It exploits the property the paper establishes in Appendix A: with
// frontier-advancing partitioning the LP relaxation is nearly tight
// (integrality gap ≈ 1.18 on their example), so few branch-and-bound nodes
// are typically required.
//
// Features: most-fractional branching, best-bound node selection with
// depth-first diving ties, dual-simplex warm starts (every node inherits its
// parent's optimal basis, so reoptimization after a branching bound change
// takes a handful of pivots instead of a cold solve), parallel
// tree search (Options.Threads workers share the best-bound heap, each
// owning a cloned working problem), incumbent seeding, a user-pluggable
// rounding heuristic (Checkmate plugs in its two-phase LP rounding),
// relative gap and wall-clock termination.
package milp

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/telemetry"
)

// Problem is a MILP: an lp.Problem plus integrality markers.
type Problem struct {
	LP *lp.Problem
	// Integer[j] marks variable j as integral. Length must equal
	// LP.NumVars().
	Integer []bool
}

// Status reports the outcome of a MILP solve.
type Status int8

// Solve outcomes.
const (
	// StatusOptimal means an incumbent was found and proved optimal within
	// the gap tolerance.
	StatusOptimal Status = iota
	// StatusFeasible means an incumbent was found but optimality was not
	// proved before a limit was hit.
	StatusFeasible
	// StatusInfeasible means the problem has no integer-feasible point.
	StatusInfeasible
	// StatusLimit means no incumbent was found before a limit was hit.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	}
	return "unknown"
}

// Counters aggregates solver performance statistics across one solve.
type Counters struct {
	// SimplexIters is the total simplex iterations over every node
	// relaxation LP (primal and dual); DualIters is the share the dual
	// simplex spent reoptimizing inherited (warm) bases, and DualStartIters
	// the share it spent from cold slack bases (the root LP, and node LPs
	// whose warm start fell back). Strong-branching probe LPs are accounted
	// separately in ProbeIters so per-node reoptimization cost stays
	// comparable across branching rules.
	SimplexIters   int64
	DualIters      int64
	DualStartIters int64
	// ProbeIters is the total simplex iterations spent in strong-branching
	// probe LPs (pseudo-cost reliability initialization).
	ProbeIters int64
	// RootIters is the root relaxation's share of SimplexIters. The root is
	// the one unavoidable (near-)cold solve; excluding it from per-node
	// averages leaves the pure reoptimization cost of the tree.
	RootIters int64
	// BoundFlips counts nonbasic variables the long-step dual ratio test
	// flipped bound-to-bound (each flip replaces a full dual pivot);
	// PricingUpdates counts dual steepest-edge reference-weight updates.
	BoundFlips     int64
	PricingUpdates int64
	// WarmHits counts node LPs that accepted an inherited basis; WarmMisses
	// counts nodes where a basis was offered but the LP fell back to a cold
	// start. Their ratio is the warm-start hit rate.
	WarmHits   int64
	WarmMisses int64
	// Phase1Skipped counts node LPs that reached a verdict with zero
	// phase-1 iterations — because a warm basis (or the slack basis) was
	// already feasible, or the dual simplex restored feasibility.
	Phase1Skipped int64
	// StrongBranchProbes counts the dual-simplex probe LPs run to
	// reliability-initialize pseudo-costs; PseudoReliable counts branching
	// decisions made entirely from already-reliable pseudo-costs (no probe
	// needed — the steady state of pseudo-cost branching).
	StrongBranchProbes int64
	PseudoReliable     int64
	// EpsSolves / EpsWarmHits describe the approximation path's ε-search LP
	// chain (populated by package approx, carried here so one counter bag
	// flows through events, /v1/stats, and BENCH_solver.json): LP
	// relaxations solved, and how many warm-started from the previous ε's
	// basis.
	EpsSolves   int64
	EpsWarmHits int64
	// NodesPerSec is the branch-and-bound node throughput of the solve.
	NodesPerSec float64
}

// Add accumulates another counter bag: a worker's, or another solve's.
// NodesPerSec is a rate, stamped by whoever knows the elapsed time, and is
// not summed.
func (c *Counters) Add(o *Counters) {
	c.SimplexIters += o.SimplexIters
	c.DualIters += o.DualIters
	c.DualStartIters += o.DualStartIters
	c.ProbeIters += o.ProbeIters
	c.RootIters += o.RootIters
	c.BoundFlips += o.BoundFlips
	c.PricingUpdates += o.PricingUpdates
	c.WarmHits += o.WarmHits
	c.WarmMisses += o.WarmMisses
	c.Phase1Skipped += o.Phase1Skipped
	c.StrongBranchProbes += o.StrongBranchProbes
	c.PseudoReliable += o.PseudoReliable
	c.EpsSolves += o.EpsSolves
	c.EpsWarmHits += o.EpsWarmHits
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	// Obj and X describe the incumbent (valid for StatusOptimal and
	// StatusFeasible).
	Obj float64
	X   []float64
	// Bound is the best proven lower bound on the optimum. Subtrees
	// abandoned because their LP hit an iteration limit fold their bound in
	// here, so Bound stays valid even when parts of the tree were lost.
	Bound float64
	// Gap is (Obj-Bound)/max(|Obj|,1e-9), NaN when no incumbent exists.
	Gap float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// RootLPObj is the objective of the root LP relaxation; the paper's
	// integrality-gap analysis (Appendix A) is the ratio Obj/RootLPObj.
	RootLPObj float64
	// RootBasis is the optimal basis of the root relaxation, exported for
	// reuse: a budget sweep passes it as Options.RootBasis of the next
	// (structurally identical) solve so even the root LP starts warm.
	RootBasis *lp.Basis
	// Counters holds the solve's performance statistics.
	Counters Counters
	// Err is non-nil when a tree-search worker panicked: the recovered
	// *telemetry.PanicError (value + goroutine stack). The panic is
	// contained — sibling workers drain cleanly and the process survives —
	// but the search is unfinished, so callers must treat the Solution as
	// failed regardless of Status.
	Err error
}

// Heuristic attempts to repair an LP-relaxation point x into an
// integer-feasible solution. It returns the repaired point, its objective,
// and whether it succeeded. The Checkmate system plugs its two-phase
// rounding (paper Algorithm 2) in here so every node can tighten the
// incumbent. With Options.Threads > 1 the heuristic is called concurrently
// from several workers and must be safe for concurrent use.
type Heuristic func(x []float64) (xInt []float64, obj float64, ok bool)

// Defaults of Options.RelGap and Options.IntTol.
const (
	DefaultRelGap = 1e-6
	DefaultIntTol = 1e-6
)

// Options tunes the branch-and-bound search. The zero value means defaults.
type Options struct {
	// TimeLimit bounds wall-clock time (0 = no limit).
	TimeLimit time.Duration
	// MaxNodes bounds the node count (0 = 1e6).
	MaxNodes int
	// RelGap is the relative optimality gap at which search stops
	// (default DefaultRelGap).
	RelGap float64
	// IntTol is the integrality tolerance (default DefaultIntTol).
	IntTol float64
	// Heuristic, if set, runs on every LP-relaxation solution.
	Heuristic Heuristic
	// Accept, if set, vets each point the search would take as integral:
	// an LP solution within IntTol of integral, after rounding. Rounding
	// moves a row's activity by up to IntTol times its coefficients, so a
	// model whose rows must hold exactly can refuse the points it broke. A
	// refused point does not become the incumbent, and its subtree is
	// abandoned with its bound kept, so optimality is not claimed past that
	// bound. With Threads > 1 calls may arrive concurrently.
	Accept func(x []float64) bool
	// Incumbent seeds the search with a known integer-feasible point.
	Incumbent []float64
	// LPOpts are passed through to the simplex solver.
	LPOpts lp.Options
	// OnImprove, if set, is called whenever the incumbent improves, with the
	// new objective and the proven global lower bound at that moment (-Inf
	// until the root relaxation finishes). With Threads > 1 calls may arrive
	// concurrently and slightly out of order; callbacks must be fast and
	// safe for concurrent use.
	OnImprove func(obj, bound float64)
	// OnBound, if set, is called whenever the proven global lower bound —
	// the minimum over open, in-flight, and abandoned subtree bounds —
	// improves. Bounds reported through it are monotone non-decreasing.
	// Same concurrency caveats as OnImprove.
	OnBound func(bound float64)
	// Context, when non-nil, cancels the search: the branch-and-bound loop
	// stops at the next node boundary and the in-flight LP relaxation is
	// interrupted via LPOpts.Cancel. Cancellation is reported like a limit
	// (StatusFeasible with the incumbent so far, or StatusLimit without one).
	Context context.Context
	// Threads is the number of parallel tree-search workers (0 or 1 =
	// serial). Workers pull from the shared best-bound heap, each owning a
	// cloned working problem; incumbent and bound updates are synchronized,
	// so any Threads value returns the same optimal objective.
	Threads int
	// RootBasis warm-starts the root relaxation with a basis exported from
	// a structurally identical solve (Solution.RootBasis) — the budget-sweep
	// fast path, where consecutive solves differ only in one RHS value.
	RootBasis *lp.Basis
	// ColdStart disables all warm starting (node basis inheritance and
	// RootBasis), forcing a cold LP solve at every node. For
	// benchmarks and ablation only.
	ColdStart bool
	// Branch selects the branching-variable rule (default BranchPseudoCost).
	Branch BranchRule
}

// BranchRule selects how the branching variable is chosen at a fractional
// node. Any rule proves the same optimum; the tree size differs.
type BranchRule int8

const (
	// BranchPseudoCost (the default) keeps per-variable averages of the
	// objective degradation observed per unit of fractionality in each
	// branching direction and picks the variable maximizing the product of
	// its predicted up/down degradations. Variables without observations
	// are reliability-initialized at shallow depth by strong-branching
	// probes: iteration-capped dual-simplex solves of both children from
	// the node's own basis.
	BranchPseudoCost BranchRule = iota
	// BranchMostFractional picks the variable farthest from integrality —
	// the pre-pseudo-cost rule, kept for benchmarks and the branching-rule
	// independence property tests.
	BranchMostFractional
)

// Pseudo-cost tuning. Reliability is deliberately low (one observation per
// direction) because Checkmate trees are shallow and probe LPs, while warm,
// are not free; strongDepth bounds probing to the part of the tree where a
// bad branching choice is most expensive.
const (
	pcReliable       = 1   // observations per direction to trust a pseudo-cost
	strongDepth      = 8   // probe only at depth ≤ this
	maxProbesPerNode = 2   // candidate variables probed per node (2 LPs each)
	probeIterLimit   = 150 // iteration cap per probe LP
	probeTotalCap    = 32  // probe LPs per solve — initialization, not a habit
)

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	if o.RelGap == 0 {
		o.RelGap = DefaultRelGap
	}
	if o.IntTol == 0 {
		o.IntTol = DefaultIntTol
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

// node is a branch-and-bound subproblem. Bound changes are stored as a
// parent-pointer chain — one boundChange per node, walked root-ward at
// expansion — rather than a per-node copy of the whole path, which cost
// O(depth²) memory on deep dives.
type node struct {
	bound  float64 // parent LP objective (lower bound for this subtree)
	depth  int
	parent *node
	change boundChange // the single change this node adds (parent != nil)
	// basis is the parent LP's optimal basis, inherited as a dual-simplex
	// warm start; shared read-only between siblings.
	basis *lp.Basis
	// denom is the fractional distance the branching closed in this node's
	// direction (f for the down child, 1−f for the up child); once this
	// node's LP solves, (LPobj − bound)/denom is one pseudo-cost
	// observation for change.j. Zero at the root, where there is nothing
	// to observe.
	denom float64
	// up records the branching direction for the pseudo-cost tables.
	up bool
	// retried marks a node already re-queued once after its LP hit an
	// iteration limit; a second failure abandons the subtree (folding its
	// bound into the solution bound).
	retried bool
}

type boundChange struct {
	j      int
	lo, hi float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	//lint:floateq exact tie-break: equal bounds fall through to the deterministic depth key
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound // best-bound first
	}
	return h[i].depth > h[j].depth // deeper first on ties (diving)
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// search is the shared state of one branch-and-bound run. All fields below
// mu are guarded by it; workers hold the lock only between node expansions.
type search struct {
	prob *Problem
	opt  Options

	mu   sync.Mutex
	cond *sync.Cond
	open nodeHeap
	// inflight[w] is the bound of the node worker w is expanding (+Inf when
	// idle); the global proven bound is the min over open and inflight.
	inflight  []float64
	incumbent []float64
	incObj    float64
	nodes     int
	// lost is the min bound over subtrees abandoned after repeated LP
	// iteration limits or a refused integral point (Options.Accept);
	// dangling over nodes popped but never expanded (gap-stop,
	// cancellation). Both fold into the final Solution.Bound.
	lost      float64
	dangling  float64
	stopLimit bool // node/time/context limit reached
	stopGap   bool // incumbent proven within RelGap of the global bound
	// panicErr records the first worker panic (as a telemetry.PanicError);
	// it also raises stopLimit so the remaining workers drain.
	panicErr error
	// proven is the best bound reported through OnBound so far; boundMu
	// serializes the deliveries themselves (outside s.mu) so the callback's
	// bound sequence stays monotone under parallel workers — without it, a
	// worker could be preempted between releasing s.mu and invoking the
	// callback while another delivers a newer, higher bound first.
	proven    float64
	boundMu   sync.Mutex
	delivered float64
	rootObj   float64
	rootBasis *lp.Basis
	ctr       Counters
	start     time.Time

	// incBits mirrors incObj as atomic float64 bits so the hot pruning
	// check in expand reads the incumbent without taking s.mu.
	incBits atomic.Uint64

	// Pseudo-cost tables, shared across workers under pcMu (never s.mu —
	// the tables are touched while no other shared state is held). pcDown/
	// pcUp hold summed per-unit objective degradations, pcDownN/pcUpN the
	// observation counts; the mean is the pseudo-cost. pcSumDown/pcSumUp
	// and pcNDown/pcNUp track the sum of per-variable means and the count
	// of observed variables, maintained incrementally so the global
	// fallback average is O(1) at branching time rather than an O(n) table
	// scan under the lock.
	pcMu      sync.Mutex
	pcDown    []float64
	pcUp      []float64
	pcDownN   []int32
	pcUpN     []int32
	pcSumDown float64
	pcSumUp   float64
	pcNDown   int64
	pcNUp     int64
	// probeCount caps total strong-branching LPs per solve.
	probeCount atomic.Int64

	// traceCtx carries the caller's telemetry trace (if any) into the
	// workers; it is the post-timeout-wrap context, so span contexts derived
	// from it observe cancellation. Always non-nil.
	traceCtx context.Context
}

// loadInc atomically reads the incumbent objective (+Inf when none).
func (s *search) loadInc() float64 { return math.Float64frombits(s.incBits.Load()) }

// provenLocked returns the current global lower bound: nothing in the tree
// lies below the best open node, any in-flight node, or the bound of an
// abandoned subtree. Caller holds s.mu.
func (s *search) provenLocked() float64 {
	b := math.Min(s.lost, s.dangling)
	if len(s.open) > 0 {
		b = math.Min(b, s.open[0].bound)
	}
	return math.Min(b, s.minInflight())
}

// Solve runs branch-and-bound.
func Solve(prob *Problem, opt Options) *Solution {
	opt = opt.withDefaults()
	// Fold TimeLimit into a context deadline so it can interrupt an
	// in-flight simplex solve (via LPOpts.Cancel below), not just the node
	// boundary check: on large instances a single LP — often the root
	// relaxation — can otherwise overshoot the limit by minutes.
	if opt.TimeLimit > 0 {
		base := opt.Context
		if base == nil {
			//lint:detach Options.Context is the optional caller ctx; nil means solve unbounded
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, opt.TimeLimit)
		defer cancel()
		opt.Context = ctx
	}
	if opt.Context != nil && opt.LPOpts.Cancel == nil {
		opt.LPOpts.Cancel = opt.Context.Done()
	}

	tctx := opt.Context
	if tctx == nil {
		//lint:detach Options.Context is the optional caller ctx; nil means solve unbounded
		tctx = context.Background()
	}
	s := &search{
		prob:      prob,
		opt:       opt,
		traceCtx:  tctx,
		inflight:  make([]float64, opt.Threads),
		incObj:    math.Inf(1),
		lost:      math.Inf(1),
		dangling:  math.Inf(1),
		proven:    math.Inf(-1),
		delivered: math.Inf(-1),
		rootObj:   math.NaN(),
		start:     time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.incBits.Store(math.Float64bits(math.Inf(1)))
	for i := range s.inflight {
		s.inflight[i] = math.Inf(1)
	}
	if opt.Branch == BranchPseudoCost {
		n := prob.LP.NumVars()
		s.pcDown = make([]float64, n)
		s.pcUp = make([]float64, n)
		s.pcDownN = make([]int32, n)
		s.pcUpN = make([]int32, n)
	}
	if opt.Incumbent != nil {
		s.incumbent = append([]float64(nil), opt.Incumbent...)
		s.incObj = prob.LP.Objective(s.incumbent)
		s.incBits.Store(math.Float64bits(s.incObj))
		if opt.OnImprove != nil {
			opt.OnImprove(s.incObj, math.Inf(-1))
		}
	}
	root := &node{bound: math.Inf(-1)}
	if !opt.ColdStart {
		root.basis = opt.RootBasis
	}
	s.open = nodeHeap{root}
	heap.Init(&s.open)

	if opt.Threads == 1 {
		s.runWorker(0)
	} else {
		var wg sync.WaitGroup
		for id := 0; id < opt.Threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s.runWorker(id)
			}(id)
		}
		wg.Wait()
	}
	return s.finish()
}

// runWorker runs one tree-search worker with panic containment: a panic in
// the expansion machinery (LP numerics, branching, the heuristic) is
// recovered into Solution.Err instead of killing the process, and the stop
// flag plus broadcast drain the sibling workers cleanly. Expansion runs
// outside s.mu, so the recovery path can take the lock safely.
func (s *search) runWorker(id int) {
	defer func() {
		if r := recover(); r != nil {
			pe := telemetry.Recovered("milp.worker", r)
			s.mu.Lock()
			if s.panicErr == nil {
				s.panicErr = pe
			}
			s.stopLimit = true
			// The dying worker can no longer report idle; clear its in-flight
			// slot so the siblings' all-idle exit check still converges.
			s.inflight[id] = math.Inf(1)
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}()
	s.worker(id)
}

// minInflight returns the smallest bound among nodes other workers are
// currently expanding. Caller holds s.mu.
func (s *search) minInflight() float64 {
	mb := math.Inf(1)
	for _, b := range s.inflight {
		if b < mb {
			mb = b
		}
	}
	return mb
}

// allIdle reports whether no worker is expanding a node. Caller holds s.mu.
func (s *search) allIdle() bool {
	for _, b := range s.inflight {
		if !math.IsInf(b, 1) {
			return false
		}
	}
	return true
}

// worker is one tree-search loop: pop the best-bound node, expand it on a
// private problem clone, merge results back. Workers exit when a limit or
// the gap target is hit, or when the heap is empty and nobody is expanding.
//
// Each worker owns a reusable lp.Solver (every node LP has the same shape,
// so after the first solve the LP engine allocates nothing) and a private
// Counters bag merged into the shared totals once, at exit — per-node work
// never touches s.mu beyond the pop/push sections.
func (s *search) worker(id int) {
	ws := &workerState{work: s.prob.LP.Clone(), solver: lp.NewSolver(),
		traceCtx: s.traceCtx, lane: id + 1}
	ws.rootLB, ws.rootHB = snapshotBounds(ws.work)
	defer func() {
		ws.endBatch()
		s.mu.Lock()
		s.ctr.Add(&ws.ctr)
		s.mu.Unlock()
	}()

	s.mu.Lock()
	for {
		if s.stopLimit || s.stopGap {
			break
		}
		if s.nodes >= s.opt.MaxNodes || (s.opt.Context != nil && s.opt.Context.Err() != nil) {
			s.stopLimit = true
			s.cond.Broadcast()
			break
		}
		if len(s.open) == 0 {
			if s.allIdle() {
				s.cond.Broadcast() // wake the others so they can exit too
				break
			}
			s.cond.Wait()
			continue
		}
		nd := heap.Pop(&s.open).(*node)
		// The global proven bound: nothing in the tree lies below the best
		// open node or any node currently being expanded.
		globalBound := math.Min(nd.bound, s.minInflight())
		if s.incObj < math.Inf(1) && gapOf(s.incObj, globalBound) <= s.opt.RelGap {
			// Remaining nodes cannot improve the incumbent beyond the gap.
			s.dangling = math.Min(s.dangling, nd.bound)
			s.stopGap = true
			s.cond.Broadcast()
			break
		}
		if !nd.retried {
			// A node re-queued after an LP iteration limit is the same
			// subproblem; count it once so Nodes, nodes/sec, and the
			// MaxNodes budget speak in distinct subproblems.
			s.nodes++
		}
		s.inflight[id] = nd.bound
		// Report bound progress: with this pop the global bound may have
		// moved up (best-bound order pops the weakest node first). The
		// callback runs outside s.mu.
		var boundCB func(float64)
		var newBound float64
		if s.opt.OnBound != nil {
			if gb := math.Min(globalBound, math.Min(s.lost, s.dangling)); gb > s.proven && !math.IsInf(gb, -1) {
				s.proven = gb
				boundCB, newBound = s.opt.OnBound, gb
			}
		}
		s.mu.Unlock()
		if boundCB != nil {
			s.reportBound(boundCB, newBound)
		}

		if nd.parent == nil {
			// The root is traced as its own root_lp span inside expand;
			// keeping it out of a node_batch keeps that attribution clean.
			s.expand(ws, nd)
		} else {
			ws.ensureBatch()
			s.expand(ws, nd)
			ws.batchNodes++
			if ws.batchNodes >= traceBatchNodes {
				ws.endBatch()
			}
		}

		s.mu.Lock()
		s.inflight[id] = math.Inf(1)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// reportBound delivers one OnBound callback under boundMu, dropping bounds
// a concurrent worker has already superseded: deliveries are serialized and
// strictly increasing, upholding the documented monotone guarantee.
func (s *search) reportBound(cb func(float64), bound float64) {
	s.boundMu.Lock()
	defer s.boundMu.Unlock()
	if bound <= s.delivered {
		return
	}
	s.delivered = bound
	cb(bound)
}

// workerState is the private per-worker machinery: a cloned problem to
// mutate bounds on, a reusable LP engine, counter and scratch space. Nothing
// in it is shared, so per-node work runs lock-free.
type workerState struct {
	work           *lp.Problem
	solver         *lp.Solver
	ctr            Counters
	rootLB, rootHB []float64
	chain          []boundChange
	cands          []brCand
	ests           []pcEst

	// Tracing: node expansions are grouped into node_batch spans of up to
	// traceBatchNodes, one lane per worker, so a trace of a million-node
	// solve stays a few thousand spans instead of a million.
	traceCtx   context.Context
	lane       int
	batchCtx   context.Context
	batch      *telemetry.ActiveSpan
	batchNodes int
}

// traceBatchNodes is how many node expansions share one node_batch span.
const traceBatchNodes = 32

// ensureBatch opens a node_batch span on the worker's lane if tracing is
// active and none is open. No-op (and allocation-free) when tracing is off.
func (ws *workerState) ensureBatch() {
	if ws.batch != nil || telemetry.FromContext(ws.traceCtx) == nil {
		return
	}
	ws.batchCtx, ws.batch = telemetry.StartSpan(ws.traceCtx, "node_batch")
	ws.batch.SetTrack(ws.lane)
	ws.batchNodes = 0
}

// endBatch closes the open node_batch span, recording how many nodes it
// covered. Safe to call with no batch open.
func (ws *workerState) endBatch() {
	if ws.batch == nil {
		return
	}
	ws.batch.SetAttr("nodes", ws.batchNodes)
	ws.batch.End()
	ws.batch, ws.batchCtx, ws.batchNodes = nil, nil, 0
}

// pcEst is a candidate's per-direction degradation estimate during branching
// selection: from the pseudo-cost tables when reliable, refreshed by a
// strong-branching probe when not.
type pcEst struct {
	down, up     float64
	downOK, upOK bool
}

// brCand is one fractional branching candidate.
type brCand struct {
	j     int
	frac  float64 // x_j − floor(x_j), in (IntTol, 1−IntTol)
	score float64
}

// expand solves one node's LP relaxation and branches. Called without s.mu;
// takes it only for the short merge sections.
func (s *search) expand(ws *workerState, nd *node) {
	// Chaos hook: one fire per node expansion. The worker has no per-node
	// error path, so an injected error escalates to a (contained) panic.
	if err := faultinject.Fire(faultinject.MILPWorker); err != nil {
		panic(err)
	}
	work, wctr := ws.work, &ws.ctr
	// Apply the node's bound changes by walking the parent chain (leaf to
	// root; changes only ever tighten, so application order is irrelevant).
	restoreBounds(work, ws.rootLB, ws.rootHB)
	cs := ws.chain[:0]
	for p := nd; p.parent != nil; p = p.parent {
		cs = append(cs, p.change)
	}
	ws.chain = cs
	for _, ch := range cs {
		lo, hi := work.Bounds(ch.j)
		nlo, nhi := math.Max(lo, ch.lo), math.Min(hi, ch.hi)
		if nlo > nhi {
			return // bounds alone prove the node infeasible
		}
		work.SetBounds(ch.j, nlo, nhi)
	}

	lpopt := s.opt.LPOpts
	if !s.opt.ColdStart {
		lpopt.WarmStart = nd.basis
	}
	var rootSpan *telemetry.ActiveSpan
	if nd.parent == nil {
		_, rootSpan = telemetry.StartSpan(ws.traceCtx, "root_lp")
	}
	sol := ws.solver.Solve(work, lpopt)
	rootSpan.SetAttr("iters", sol.Iters)
	rootSpan.SetAttr("dual_start_iters", sol.DualStartIters)
	rootSpan.SetAttr("refactors", sol.Refactors)
	rootSpan.SetAttr("status", sol.Status.String())
	rootSpan.End()

	wctr.SimplexIters += int64(sol.Iters)
	wctr.DualIters += int64(sol.DualIters)
	wctr.DualStartIters += int64(sol.DualStartIters)
	wctr.BoundFlips += int64(sol.BoundFlips)
	wctr.PricingUpdates += int64(sol.PricingUpdates)
	if sol.Status != lp.StatusInfeasible && sol.Phase1Iters == 0 {
		wctr.Phase1Skipped++
	}
	if lpopt.WarmStart != nil {
		if sol.Warm {
			wctr.WarmHits++
		} else {
			wctr.WarmMisses++
		}
	}
	if nd.parent == nil {
		wctr.RootIters += int64(sol.Iters)
		if sol.Status == lp.StatusOptimal {
			s.mu.Lock()
			s.rootObj = sol.Obj
			s.rootBasis = sol.Basis
			s.mu.Unlock()
		}
	}
	inc := s.loadInc()

	// Pseudo-cost observation: this node's LP degradation over the
	// fractional distance its branching closed.
	if s.pcDown != nil && nd.denom > 0 && sol.Status == lp.StatusOptimal && !math.IsInf(nd.bound, -1) {
		s.recordPseudo(nd.change.j, nd.up, math.Max(sol.Obj-nd.bound, 0)/nd.denom)
	}

	switch sol.Status {
	case lp.StatusInfeasible:
		return
	case lp.StatusUnbounded:
		// An unbounded relaxation of a node: the MILP is unbounded or the
		// formulation is broken. Treat as no useful bound.
		return
	case lp.StatusIterLimit:
		cancelled := s.opt.Context != nil && s.opt.Context.Err() != nil
		s.mu.Lock()
		switch {
		case cancelled:
			s.stopLimit = true
			s.dangling = math.Min(s.dangling, nd.bound)
		case !nd.retried:
			// Re-queue once with a cold start: iteration limits on node LPs
			// are usually warm-start stalls or an unlucky starting basis.
			nd.retried = true
			nd.basis = nil
			heap.Push(&s.open, nd)
		default:
			// Abandon the subtree but keep its bound, so Solution.Bound
			// stays a valid lower bound (previously the bound was silently
			// lost and the final "proven" bound could overshoot it).
			s.lost = math.Min(s.lost, nd.bound)
		}
		s.mu.Unlock()
		return
	}
	if prunedBy(sol.Obj, inc, s.opt.RelGap) {
		return // pruned by bound
	}

	// Run the rounding heuristic for a quick incumbent.
	if s.opt.Heuristic != nil {
		if xh, objH, ok := s.opt.Heuristic(sol.X); ok {
			s.offerIncumbent(xh, objH)
		}
	}

	// Collect the fractional integer variables.
	cands := ws.cands[:0]
	for j, isInt := range s.prob.Integer {
		if !isInt {
			continue
		}
		f := sol.X[j] - math.Floor(sol.X[j])
		if math.Min(f, 1-f) > s.opt.IntTol {
			cands = append(cands, brCand{j: j, frac: f})
		}
	}
	ws.cands = cands
	if len(cands) == 0 {
		// Integral: candidate incumbent, unless the caller refuses it.
		x := roundIntegers(s.prob, sol.X, s.opt.IntTol)
		if s.opt.Accept != nil && !s.opt.Accept(x) {
			s.mu.Lock()
			s.lost = math.Min(s.lost, sol.Obj)
			s.mu.Unlock()
			return
		}
		s.offerIncumbent(x, s.prob.LP.Objective(x))
		return
	}
	branchJ := s.selectBranch(ws, nd, sol, cands)
	var childBasis *lp.Basis
	if !s.opt.ColdStart {
		childBasis = sol.Basis // shared read-only by both children
	}
	v := sol.X[branchJ]
	f := v - math.Floor(v)
	down := &node{bound: sol.Obj, depth: nd.depth + 1, parent: nd,
		change: boundChange{branchJ, math.Inf(-1), math.Floor(v)}, basis: childBasis,
		denom: f}
	up := &node{bound: sol.Obj, depth: nd.depth + 1, parent: nd,
		change: boundChange{branchJ, math.Ceil(v), math.Inf(1)}, basis: childBasis,
		denom: 1 - f, up: true}
	s.mu.Lock()
	// Re-check pruning: the incumbent may have improved during the solve.
	if !prunedBy(sol.Obj, s.incObj, s.opt.RelGap) {
		heap.Push(&s.open, down)
		heap.Push(&s.open, up)
	}
	s.mu.Unlock()
}

// selectBranch picks the branching variable. Most-fractional is the classic
// fallback rule; the default pseudo-cost rule predicts each candidate's
// up/down objective degradation from the shared observation tables,
// reliability-initializing unknown candidates at shallow depth with
// strong-branching probes (iteration-capped dual-simplex solves of the
// would-be children from the node's own optimal basis), and maximizes the
// product of the predicted degradations.
func (s *search) selectBranch(ws *workerState, nd *node, sol *lp.Solution, cands []brCand) int {
	if s.opt.Branch != BranchPseudoCost || s.pcDown == nil || len(cands) == 1 {
		best, bestDist := cands[0].j, -1.0
		for _, c := range cands {
			if d := math.Min(c.frac, 1-c.frac); d > bestDist {
				best, bestDist = c.j, d
			}
		}
		return best
	}

	// Most-fractional-first order makes both the probe budget and the score
	// tie-break deterministic.
	sort.Slice(cands, func(a, b int) bool {
		da := math.Min(cands[a].frac, 1-cands[a].frac)
		db := math.Min(cands[b].frac, 1-cands[b].frac)
		//lint:floateq exact tie-break: equal scores fall through to the deterministic index key
		if da != db {
			return da > db
		}
		return cands[a].j < cands[b].j
	})

	if cap(ws.ests) < len(cands) {
		ws.ests = make([]pcEst, len(cands))
	}
	ests := ws.ests[:len(cands)]

	// Snapshot the tables: per-candidate means where reliable, the global
	// mean (maintained incrementally by recordPseudo — no table scan under
	// the lock) as the fallback estimate for the rest.
	s.pcMu.Lock()
	avgDown, avgUp := 1.0, 1.0
	if s.pcNDown > 0 {
		avgDown = s.pcSumDown / float64(s.pcNDown)
	}
	if s.pcNUp > 0 {
		avgUp = s.pcSumUp / float64(s.pcNUp)
	}
	for k, c := range cands {
		e := pcEst{down: avgDown, up: avgUp}
		if n := s.pcDownN[c.j]; n >= pcReliable {
			e.down, e.downOK = s.pcDown[c.j]/float64(n), true
		}
		if n := s.pcUpN[c.j]; n >= pcReliable {
			e.up, e.upOK = s.pcUp[c.j]/float64(n), true
		}
		ests[k] = e
	}
	s.pcMu.Unlock()

	// Reliability initialization: probe the most fractional unknown
	// candidates. A probe that proves a side infeasible makes its variable
	// the immediate choice — branching there closes half the subtree.
	probes := 0
	if nd.depth <= strongDepth && sol.Basis != nil {
		for k := range cands {
			if probes >= maxProbesPerNode || s.probeCount.Load() >= probeTotalCap {
				break
			}
			if ests[k].downOK && ests[k].upOK {
				continue
			}
			c := cands[k]
			v := sol.X[c.j]
			if !ests[k].downOK {
				if obj, ok, infeas := s.probe(ws, sol, c.j, math.Inf(-1), math.Floor(v)); infeas {
					// An infeasible side wins the product rule outright —
					// branching here closes half the subtree immediately, and
					// no further probe could change the selection.
					return c.j
				} else if ok {
					per := math.Max(obj-sol.Obj, 0) / c.frac
					ests[k].down, ests[k].downOK = per, true
					s.recordPseudo(c.j, false, per)
				}
			}
			if !ests[k].upOK {
				if obj, ok, infeas := s.probe(ws, sol, c.j, math.Ceil(v), math.Inf(1)); infeas {
					return c.j
				} else if ok {
					per := math.Max(obj-sol.Obj, 0) / (1 - c.frac)
					ests[k].up, ests[k].upOK = per, true
					s.recordPseudo(c.j, true, per)
				}
			}
			probes++
		}
	}
	if probes == 0 {
		ws.ctr.PseudoReliable++
	}

	// Product rule: the branching that degrades both children the most
	// splits the node's LP bound range fastest.
	const eps = 1e-6
	best, bestScore := cands[0].j, -1.0
	for k, c := range cands {
		score := math.Max(ests[k].down*c.frac, eps) * math.Max(ests[k].up*(1-c.frac), eps)
		if score > bestScore {
			best, bestScore = c.j, score
		}
	}
	return best
}

// probe runs one strong-branching child LP: the candidate's bounds tightened
// to [lo,hi], warm-started from the node's optimal basis, iteration-capped.
// Returns the child objective when solved, ok=false when the probe timed out
// (no information), infeas=true when the child is provably empty.
func (s *search) probe(ws *workerState, sol *lp.Solution, j int, lo, hi float64) (obj float64, ok, infeas bool) {
	olo, ohi := ws.work.Bounds(j)
	nlo, nhi := math.Max(olo, lo), math.Min(ohi, hi)
	if nlo > nhi {
		return 0, false, true
	}
	ws.work.SetBounds(j, nlo, nhi)
	popt := s.opt.LPOpts
	if !s.opt.ColdStart {
		popt.WarmStart = sol.Basis
	}
	popt.MaxIters = probeIterLimit
	pctx := ws.batchCtx
	if pctx == nil {
		pctx = ws.traceCtx
	}
	_, psp := telemetry.StartSpan(pctx, "probe", telemetry.A("var", j))
	psol := ws.solver.Solve(ws.work, popt)
	psp.SetAttr("iters", psol.Iters)
	psp.End()
	ws.work.SetBounds(j, olo, ohi)
	s.probeCount.Add(1)
	ws.ctr.StrongBranchProbes++
	ws.ctr.ProbeIters += int64(psol.Iters)
	ws.ctr.BoundFlips += int64(psol.BoundFlips)
	ws.ctr.PricingUpdates += int64(psol.PricingUpdates)
	switch psol.Status {
	case lp.StatusOptimal:
		return psol.Obj, true, false
	case lp.StatusInfeasible:
		return 0, false, true
	}
	return 0, false, false
}

// recordPseudo adds one per-unit degradation observation to the shared
// pseudo-cost tables, keeping the sum-of-means aggregates in step.
func (s *search) recordPseudo(j int, up bool, per float64) {
	s.pcMu.Lock()
	if up {
		oldMean, oldN := 0.0, s.pcUpN[j]
		if oldN > 0 {
			oldMean = s.pcUp[j] / float64(oldN)
		} else {
			s.pcNUp++
		}
		s.pcUp[j] += per
		s.pcUpN[j]++
		s.pcSumUp += s.pcUp[j]/float64(s.pcUpN[j]) - oldMean
	} else {
		oldMean, oldN := 0.0, s.pcDownN[j]
		if oldN > 0 {
			oldMean = s.pcDown[j] / float64(oldN)
		} else {
			s.pcNDown++
		}
		s.pcDown[j] += per
		s.pcDownN[j]++
		s.pcSumDown += s.pcDown[j]/float64(s.pcDownN[j]) - oldMean
	}
	s.pcMu.Unlock()
}

// prunedBy reports whether a subtree with LP bound obj cannot improve the
// incumbent beyond the relative gap. False when no incumbent exists.
func prunedBy(obj, incObj, relGap float64) bool {
	if math.IsInf(incObj, 1) {
		return false
	}
	return obj >= incObj-math.Abs(incObj)*relGap
}

// offerIncumbent installs x as the incumbent if it improves on the current
// one. Called without s.mu.
func (s *search) offerIncumbent(x []float64, obj float64) {
	s.mu.Lock()
	if obj >= s.incObj-1e-12 {
		s.mu.Unlock()
		return
	}
	s.incumbent = append(s.incumbent[:0], x...)
	s.incObj = obj
	s.incBits.Store(math.Float64bits(obj))
	cb := s.opt.OnImprove
	bound := s.provenLocked()
	s.mu.Unlock()
	if cb != nil {
		cb(obj, bound)
	}
}

// finish assembles the Solution after every worker has exited.
func (s *search) finish() *Solution {
	res := &Solution{
		Status:    StatusLimit,
		Bound:     math.Inf(-1),
		Gap:       math.NaN(),
		Nodes:     s.nodes,
		RootLPObj: s.rootObj,
		RootBasis: s.rootBasis,
		Err:       s.panicErr,
	}
	if el := time.Since(s.start).Seconds(); el > 0 {
		s.ctr.NodesPerSec = float64(s.nodes) / el
	}
	res.Counters = s.ctr

	// The proven bound: every unexplored leaf lives under an open, dangling,
	// or lost node (all workers are idle by now).
	bound := math.Min(s.lost, s.dangling)
	for _, nd := range s.open {
		bound = math.Min(bound, nd.bound)
	}
	// The tree was fully explored iff no limit stopped the search and no
	// subtree's proof was abandoned.
	exhausted := len(s.open) == 0 && !s.stopLimit && math.IsInf(s.lost, 1)
	if exhausted && math.IsInf(bound, 1) {
		bound = s.incObj // tree exhausted: bound = incumbent (or +Inf if none)
	}
	if s.incumbent != nil {
		// Subtrees pruned against the incumbent are absent from the bound
		// candidates; the incumbent itself caps what any of them can prove.
		bound = math.Min(bound, s.incObj)
	}
	res.Bound = bound
	if s.incumbent != nil {
		res.Obj = s.incObj
		res.X = s.incumbent
		res.Gap = gapOf(s.incObj, bound)
		if res.Gap <= s.opt.RelGap || exhausted {
			res.Status = StatusOptimal
			res.Gap = math.Max(res.Gap, 0)
		} else {
			res.Status = StatusFeasible
		}
		return res
	}
	if exhausted {
		res.Status = StatusInfeasible
		res.Bound = math.Inf(1)
	}
	return res
}

func gapOf(obj, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	return (obj - bound) / math.Max(math.Abs(obj), 1e-9)
}

func snapshotBounds(p *lp.Problem) (lo, hi []float64) {
	n := p.NumVars()
	lo = make([]float64, n)
	hi = make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = p.Bounds(j)
	}
	return lo, hi
}

func restoreBounds(p *lp.Problem, lo, hi []float64) {
	for j := range lo {
		p.SetBounds(j, lo[j], hi[j])
	}
}

// roundIntegers snaps near-integral entries exactly; used when an LP
// solution is integral within tolerance.
func roundIntegers(prob *Problem, x []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for j, isInt := range prob.Integer {
		if isInt {
			r := math.Round(out[j])
			if math.Abs(out[j]-r) <= 10*tol {
				out[j] = r
			}
		}
	}
	return out
}
