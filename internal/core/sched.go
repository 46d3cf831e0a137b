// Package core implements the paper's primary contribution: the optimal
// tensor rematerialization problem formulated as a mixed integer linear
// program (Sections 4.1–4.8), together with the schedule representation
// (R, S, FREE matrices) shared by the ILP solver, the LP-rounding
// approximation (package approx), and the generalized baselines
// (package baselines).
package core

import (
	"fmt"

	"repro/internal/graph"
)

// Sched is a rematerialization schedule in the paper's matrix representation
// (Section 4.2): execution is unrolled into T = n frontier-advancing stages.
//
//	R[t][i] — operation i is (re)computed during stage t.
//	S[t][i] — the value of operation i is retained in memory from the end of
//	          stage t-1 into stage t (a checkpoint).
//	Free[t][e] — for edge e = (i,k): value i is deallocated in stage t right
//	          after evaluating k (auxiliary variable FREE_{t,i,k}, eq. (5)).
//
// All matrices are dense n×n (Free is n×|E|). For frontier-advancing
// schedules R and S are lower triangular and R[t][t] = 1.
type Sched struct {
	N    int
	R    [][]bool
	S    [][]bool
	Free [][]bool // [stage][edge index], aligned with Graph.Edges() order
}

// NewSched allocates an all-false schedule for n nodes and m edges.
func NewSched(n, m int) *Sched {
	s := &Sched{N: n, R: boolMat(n, n), S: boolMat(n, n), Free: boolMat(n, m)}
	return s
}

func boolMat(r, c int) [][]bool {
	backing := make([]bool, r*c)
	m := make([][]bool, r)
	for i := range m {
		m[i] = backing[i*c : (i+1)*c]
	}
	return m
}

// Cost returns the schedule's total computation cost Σ_t Σ_i C_i R[t][i]
// (objective (1a)).
func (s *Sched) Cost(g *graph.Graph) float64 {
	var c float64
	for _, row := range s.R[:s.N] {
		for i, computed := range row[:s.N] {
			if computed {
				c += g.Node(graph.NodeID(i)).Cost
			}
		}
	}
	return c
}

// Recomputations returns the number of R entries in excess of one evaluation
// per node.
func (s *Sched) Recomputations() int {
	total := 0
	for t := range s.R {
		for i := range s.R[t] {
			if s.R[t][i] {
				total++
			}
		}
	}
	return total - s.N
}

// Validate checks the correctness constraints (1b) and (1c) plus
// frontier-advancing structure when frontier is true: R lower triangular
// with unit diagonal, S strictly lower triangular, and the terminal node
// computed. Returns the first violation found.
func (s *Sched) Validate(g *graph.Graph, frontier bool) error {
	n := s.N
	if g.Len() != n {
		return fmt.Errorf("core: schedule size %d != graph size %d", n, g.Len())
	}
	computedLast := false
	for t := 0; t < n; t++ {
		if s.R[t][n-1] {
			computedLast = true
		}
		// (1b): R[t][j] ≤ R[t][i] + S[t][i] for every edge (i,j), visited
		// in Graph.Edges order.
		for j := 0; j < n; j++ {
			if !s.R[t][j] {
				continue
			}
			for _, dep := range g.Deps(graph.NodeID(j)) {
				if i := int(dep); !s.R[t][i] && !s.S[t][i] {
					return fmt.Errorf("core: stage %d computes %d without dependency %d resident (1b)", t, j, i)
				}
			}
		}
		// (1c): S[t][i] ≤ R[t-1][i] + S[t-1][i].
		if t >= 1 {
			for i := 0; i < n; i++ {
				if s.S[t][i] && !s.R[t-1][i] && !s.S[t-1][i] {
					return fmt.Errorf("core: stage %d checkpoints %d that was neither resident nor computed in stage %d (1c)", t, i, t-1)
				}
			}
		}
		if frontier {
			if !s.R[t][t] {
				return fmt.Errorf("core: frontier-advancing schedule missing R[%d][%d]=1 (8a)", t, t)
			}
			for i := t + 1; i < n; i++ {
				if s.R[t][i] {
					return fmt.Errorf("core: R[%d][%d]=1 above the diagonal (8c)", t, i)
				}
				if s.S[t][i] {
					return fmt.Errorf("core: S[%d][%d]=1 above the diagonal (8b)", t, i)
				}
			}
			if s.S[t][t] {
				return fmt.Errorf("core: S[%d][%d]=1 on the diagonal (8b)", t, t)
			}
		}
	}
	for i := 0; i < n; i++ {
		if s.S[0][i] {
			return fmt.Errorf("core: S[0][%d]=1 but no values are in memory initially (1d/8b)", i)
		}
	}
	if !computedLast {
		return fmt.Errorf("core: terminal node never computed (1e)")
	}
	return nil
}

// ComputeFree fills s.Free from R and S exactly per the paper's definition
// (5): FREE_{t,i,k} = R_{t,k} · (1 − S_{t+1,i}) · Π_{j∈USERS[i], j>k} (1 − R_{t,j}),
// evaluated for every edge (i,k). For the last stage the S_{t+1,i} factor is
// taken as 0 (nothing survives the schedule). The diagonal terms
// FREE_{t,k,k} eliminated in Section 4.8 are also reconstructed here for
// nodes whose value is dead immediately (no in-stage later user and not
// checkpointed); they are reported via the returned selfFree matrix rather
// than s.Free, which is edge-indexed.
//
// Definition (5) is zero unless R_{t,k}, so each Free row is cleared and
// then set only at the nodes its stage computes.
func (s *Sched) ComputeFree(g *graph.Graph) (selfFree [][]bool) {
	selfFree = boolMat(s.N, s.N)
	s.computeFree(g, selfFree)
	return selfFree
}

// computeFree is the body of ComputeFree, writing the diagonal terms into
// selfFree; a nil selfFree skips them.
func (s *Sched) computeFree(g *graph.Graph, selfFree [][]bool) {
	n := s.N
	first := edgeStarts(g)
	m := first[g.Len()]
	for t := 0; t < n; t++ {
		free := s.Free[t][:m]
		clear(free)
		for k, computed := range s.R[t][:n] {
			if !computed {
				continue
			}
			for j, i := range g.Deps(graph.NodeID(k)) {
				free[first[k]+j] = s.freeVal(g, t, int(i), k)
			}
			// Diagonal FREE_{t,k,k}: value k freed right after computing it.
			if selfFree != nil {
				selfFree[t][k] = s.freeVal(g, t, k, k)
			}
		}
	}
}

// edgeStarts returns, for each node k, the index in Graph.Edges of its first
// incoming edge, and the edge count last. Edges are dst-major, so the edges
// into k are first[k], first[k]+1, … in Deps(k) order.
func edgeStarts(g *graph.Graph) []int {
	first := make([]int, g.Len()+1)
	for k := range g.Len() {
		first[k+1] = first[k] + len(g.Deps(graph.NodeID(k)))
	}
	return first
}

// freeVal evaluates definition (5) for value i at evaluation point k in
// stage t. i == k encodes the diagonal case.
func (s *Sched) freeVal(g *graph.Graph, t, i, k int) bool {
	if !s.R[t][k] {
		return false
	}
	if t+1 < s.N && s.S[t+1][i] {
		return false
	}
	for _, j := range g.Users(graph.NodeID(i)) {
		if int(j) > k && s.R[t][int(j)] {
			return false
		}
	}
	// For the diagonal case the value must additionally be unused by any
	// in-stage user at all (users ≤ k cannot consume a value produced at k).
	if i == k {
		for _, j := range g.Users(graph.NodeID(i)) {
			if int(j) <= k && s.R[t][int(j)] {
				// A user with smaller index consuming this stage's value is
				// impossible under topological order; defensive only.
				return false
			}
		}
	}
	return true
}

// MemProfile is the memory accounting of a schedule: U[t][k] is the memory
// in use just after computing node k in stage t (recurrences (2)–(3)).
type MemProfile struct {
	U    [][]float64
	Peak float64
}

// MemUsage evaluates the paper's memory recurrence for the schedule given
// per-node sizes and the constant overhead (M_input + 2·M_param, eq. (2)).
// Free must be as ComputeFree left it: it is read only at the nodes a stage
// computes, the only places definition (5) can set it. The diagonal frees
// from Section 4.8's elimination are recomputed internally.
func (s *Sched) MemUsage(g *graph.Graph, overhead int64) *MemProfile {
	n := s.N
	backing := make([]float64, n*n)
	prof := &MemProfile{U: make([][]float64, n)}
	for t := range prof.U {
		prof.U[t] = backing[t*n : (t+1)*n : (t+1)*n]
	}
	s.MemUsageInto(g, overhead, prof)
	return prof
}

// MemUsageInto is the body of MemUsage: it overwrites prof.U, whose rows
// must hold N entries each, and prof.Peak.
func (s *Sched) MemUsageInto(g *graph.Graph, overhead int64, prof *MemProfile) {
	n := s.N
	first := edgeStarts(g)
	size := make([]float64, n)
	for k := range size {
		size[k] = float64(g.Node(graph.NodeID(k)).Mem)
	}
	peak := 0.0
	for t := 0; t < n; t++ {
		free := s.Free[t]
		u := prof.U[t][:n]
		base := float64(overhead)
		for i, kept := range s.S[t][:n] {
			if kept {
				base += size[i]
			}
		}
		cur := base
		for k, computed := range s.R[t][:n] {
			if computed {
				cur += size[k]
			}
			u[k] = cur
			if cur > peak {
				peak = cur
			}
			if !computed {
				continue
			}
			// After evaluating k, deallocate freed dependencies and possibly
			// k itself (diagonal free, Section 4.8).
			for j, i := range g.Deps(graph.NodeID(k)) {
				if free[first[k]+j] {
					cur -= size[i]
				}
			}
			if s.freeVal(g, t, k, k) {
				cur -= size[k]
			}
		}
	}
	prof.Peak = peak
}

// Peak returns the peak memory of the schedule including the constant
// overhead; a convenience over MemUsage.
func (s *Sched) Peak(g *graph.Graph, overhead int64) float64 {
	return s.MemUsage(g, overhead).Peak
}

// CheckNoDoubleFree verifies Theorem 4.1 on the populated Free matrix:
// Σ_{k∈USERS[i]} FREE_{t,i,k} ≤ 1 for every stage t and value i.
func (s *Sched) CheckNoDoubleFree(g *graph.Graph) error {
	edges := g.Edges()
	for t := 0; t < s.N; t++ {
		count := make([]int, s.N)
		for ei, e := range edges {
			if s.Free[t][ei] {
				count[e[0]]++
			}
		}
		for i, c := range count {
			if c > 1 {
				return fmt.Errorf("core: value %d freed %d times in stage %d (violates Theorem 4.1)", i, c, t)
			}
		}
	}
	return nil
}

// CheckpointAll returns the paper's "Checkpoint all" schedule: every node is
// computed exactly once at its frontier stage and retained for all later
// stages, to the end of the schedule, whether or not anything still uses it.
// It is cost-optimal when memory is unlimited and matches the default
// behaviour of TensorFlow/PyTorch (Section 2), but IdealSched has the same
// cost at a peak that is never higher: retention past a value's last use only
// adds memory.
func CheckpointAll(g *graph.Graph) *Sched {
	n := g.Len()
	s := NewSched(n, g.NumEdges())
	for t := 0; t < n; t++ {
		s.R[t][t] = true
		for i := 0; i < t; i++ {
			s.S[t][i] = true
		}
	}
	s.ComputeFree(g)
	return s
}

// IdealSched returns the schedule without recomputation that needs the least
// memory: every node is computed once, in its own frontier stage, and each
// value is retained from the stage after its creation through the stage of
// its last user. Any frontier-advancing schedule that computes every node
// once must retain at least these values — (1b) makes a user's dependency
// resident in the user's stage, and (1c) carries it back to its creation —
// and retention only adds memory, so none peaks lower. Its cost is Σ C_i,
// the least objective (1a) admits under (8a); a budget that fits its peak is
// therefore solved by it, with no LP.
func IdealSched(g *graph.Graph) *Sched {
	n := g.Len()
	s := NewSched(n, g.NumEdges())
	for i := 0; i < n; i++ {
		s.R[i][i] = true
		last := i
		for _, u := range g.Users(graph.NodeID(i)) {
			last = max(last, int(u))
		}
		for t := i + 1; t <= last; t++ {
			s.S[t][i] = true
		}
	}
	s.ComputeFree(g)
	return s
}

// SolveMinR computes the cheapest computation matrix R consistent with a
// given checkpoint matrix S (the second phase of two-phase rounding,
// Algorithm 2, also used to complete the heuristic baselines as described in
// Section 6.1/Appendix B). The returned schedule has R[t][t] = 1 for all t
// (frontier-advancing), every (1b)/(1c) violation repaired by setting the
// minimal set of additional R entries, and Free populated.
//
// Violations of (1b) are corrected in reverse topological order per stage so
// that repaired constraints stay satisfied, exactly as in Algorithm 2.
func SolveMinR(g *graph.Graph, S [][]bool) *Sched {
	n := g.Len()
	s := NewSched(n, g.NumEdges())
	for t := 0; t < n; t++ {
		copy(s.S[t], S[t])
	}
	s.FillMinR(g)
	return s
}

// FillMinR is the body of SolveMinR in s's own storage: it keeps s.S and
// overwrites R and Free with the completion SolveMinR returns for it.
func (s *Sched) FillMinR(g *graph.Graph) {
	n := s.N
	for t := 0; t < n; t++ {
		clear(s.R[t][:n])
		s.R[t][t] = true
	}
	// Phase a: (1c) — a checkpointed value must have been resident or
	// computed in the previous stage. Scan stages forward so injected
	// R[t-1][i] are visible to later stages' checks.
	for t := 1; t < n; t++ {
		for i := 0; i < n; i++ {
			if s.S[t][i] && !s.R[t-1][i] && !s.S[t-1][i] {
				s.R[t-1][i] = true
			}
		}
	}
	// Phase b: (1b) — dependencies of computed nodes must be resident.
	// Correct in reverse topological order within each stage, scanning the
	// R matrix right to left, so earlier fixes are never invalidated.
	for t := 0; t < n; t++ {
		for j := n - 1; j >= 0; j-- {
			if !s.R[t][j] {
				continue
			}
			for _, dep := range g.Deps(graph.NodeID(j)) {
				i := int(dep)
				if !s.R[t][i] && !s.S[t][i] {
					s.R[t][i] = true
				}
			}
		}
	}
	s.computeFree(g, nil)
}

// FromCheckpointSet builds the static checkpoint policy S used to evaluate
// heuristic baselines (Section 6.2: "We implement baselines as a static
// policy for the decision variable S"): forward values in keep are retained
// in every stage after they are first computed; every already-computed
// backward (gradient) value is retained until its last use, reflecting the
// prior-work assumption that gradients are never rematerialized.
func FromCheckpointSet(g *graph.Graph, keep map[graph.NodeID]bool) [][]bool {
	n := g.Len()
	S := boolMat(n, n)
	lastUse := make([]int, n)
	for i := 0; i < n; i++ {
		lastUse[i] = i
		for _, u := range g.Users(graph.NodeID(i)) {
			if int(u) > lastUse[i] {
				lastUse[i] = int(u)
			}
		}
	}
	for i := 0; i < n; i++ {
		node := g.Node(graph.NodeID(i))
		for t := i + 1; t < n; t++ {
			switch {
			case keep[graph.NodeID(i)]:
				S[t][i] = true
			case node.Backward && t <= lastUse[i]:
				S[t][i] = true
			}
		}
	}
	return S
}

// MinBudgetLowerBound returns a simple lower bound on any feasible budget:
// every node must fit together with its dependencies plus overhead.
func MinBudgetLowerBound(g *graph.Graph, overhead int64) int64 {
	var worst int64
	for k := 0; k < g.Len(); k++ {
		need := g.Node(graph.NodeID(k)).Mem
		for _, d := range g.Deps(graph.NodeID(k)) {
			need += g.Node(d).Mem
		}
		if need > worst {
			worst = need
		}
	}
	return worst + overhead
}

// Float64Mat converts a bool matrix to float64 (used to seed MILP
// incumbents).
func Float64Mat(b [][]bool) [][]float64 {
	out := make([][]float64, len(b))
	for i := range b {
		out[i] = make([]float64, len(b[i]))
		for j := range b[i] {
			if b[i][j] {
				out[i][j] = 1
			}
		}
	}
	return out
}
