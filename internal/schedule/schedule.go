// Package schedule turns solved rematerialization matrices into concrete
// execution plans (paper Section 4.9, Algorithm 1), optimizes them with
// deallocation code motion, and simulates their execution to track memory.
//
// A plan is a program P = (s₁,…,s_k) over three statement kinds:
//
//	%r = allocate v   — create a virtual register for v's output
//	compute v, %r     — run operation v, writing through %r
//	deallocate %r     — release the register and its value
//
// The simulator walks a plan, maintaining resident-register state, verifying
// correctness (every compute has its dependencies resident; no register is
// freed twice or used after free) and reporting the memory high-water mark,
// which must match the MILP's U accounting.
package schedule

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// OpKind discriminates plan statements.
type OpKind int8

// Statement kinds.
const (
	OpAllocate OpKind = iota
	OpCompute
	OpDeallocate
)

// Stmt is one plan statement.
type Stmt struct {
	Kind OpKind
	// Node is the operation (for allocate/compute).
	Node graph.NodeID
	// Reg is the virtual register.
	Reg int
	// Stage records which schedule stage emitted the statement.
	Stage int
}

func (s Stmt) String() string {
	switch s.Kind {
	case OpAllocate:
		return fmt.Sprintf("%%r%d = allocate v%d", s.Reg, s.Node)
	case OpCompute:
		return fmt.Sprintf("compute v%d, %%r%d", s.Node, s.Reg)
	case OpDeallocate:
		return fmt.Sprintf("deallocate %%r%d", s.Reg)
	}
	return "?"
}

// Plan is a concrete execution plan.
type Plan struct {
	Stmts []Stmt
	// NumRegs is the total number of virtual registers allocated.
	NumRegs int
	// RegNode maps register -> producing node.
	RegNode []graph.NodeID
}

// String renders the plan one statement per line.
func (p *Plan) String() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Generate implements Algorithm 1: a row-major scan of (R, S, FREE) emitting
// allocate/compute statements for every R[t][k] = 1 and deallocations
// according to FREE (including the reconstructed diagonal frees of
// Section 4.8). FREE is recomputed from R and S first, so a schedule whose
// Free disagrees with them (one read from JSON, say) still lowers correctly;
// a schedule shaped for another graph is an error.
func Generate(g *graph.Graph, s *core.Sched) (*Plan, error) {
	if err := checkShape(g, s); err != nil {
		return nil, err
	}
	n := s.N
	selfFree := s.ComputeFree(g)

	p := &Plan{}
	computes := 0
	for _, row := range s.R[:n] {
		for _, r := range row[:n] {
			if r {
				computes++
			}
		}
	}
	if computes > 0 {
		// Every compute takes a register, an allocate and a compute
		// statement, and each register is deallocated at most once.
		p.Stmts = make([]Stmt, 0, 3*computes)
		p.RegNode = make([]graph.NodeID, 0, computes)
	}
	regs := make([]int, n) // node -> live register, -1 if none
	for i := range regs {
		regs[i] = -1
	}
	for t := 0; t < n; t++ {
		// Values resident from earlier stages but not checkpointed into this
		// stage (S[t][i] = 0) leave the paper's memory accounting at the
		// stage boundary (eq. (2) counts only checkpoints in the base term);
		// release them here. Constraint (1b) guarantees any in-stage user
		// recomputes such a value, so this is always safe, and it realizes
		// the Section 4.9 remark that spurious checkpoints "can be
		// deallocated at the start of the stage".
		if t > 0 {
			for i, kept := range s.S[t][:n] {
				if r := regs[i]; r >= 0 && !kept {
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: r, Stage: t})
					regs[i] = -1
				}
			}
		}
		// FREE is zero at the nodes a stage does not compute (definition
		// (5)), so only computed nodes emit statements. ei indexes the first
		// edge into k: Graph.Edges is dst-major, in Deps(k) order.
		free, ei := s.Free[t], 0
		for k, computed := range s.R[t][:n] {
			deps := g.Deps(graph.NodeID(k))
			if !computed {
				ei += len(deps)
				continue
			}
			r := p.NumRegs
			p.NumRegs++
			p.RegNode = append(p.RegNode, graph.NodeID(k))
			p.Stmts = append(p.Stmts,
				Stmt{Kind: OpAllocate, Node: graph.NodeID(k), Reg: r, Stage: t},
				Stmt{Kind: OpCompute, Node: graph.NodeID(k), Reg: r, Stage: t})
			regs[k] = r
			// Free vk and dependencies per FREE.
			for j, dep := range deps {
				if free[ei+j] {
					i := int(dep)
					if regs[i] < 0 {
						return nil, fmt.Errorf("schedule: stage %d frees value %d with no live register", t, i)
					}
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[i], Stage: t})
					regs[i] = -1
				}
			}
			ei += len(deps)
			if selfFree[t][k] {
				if regs[k] >= 0 {
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[k], Stage: t})
					regs[k] = -1
				}
			}
		}
	}
	return p, nil
}

// checkShape reports a schedule whose stage count or row widths are not the
// graph's: R and S must be n×n and FREE n×|E|, for the graph's n nodes and
// |E| edges.
func checkShape(g *graph.Graph, s *core.Sched) error {
	n, m := g.Len(), g.NumEdges()
	if s.N != n || len(s.R) != n || len(s.S) != n || len(s.Free) != n {
		return fmt.Errorf("schedule: schedule has %d stages and %d, %d and %d rows of R, S and FREE; the graph has %d nodes",
			s.N, len(s.R), len(s.S), len(s.Free), n)
	}
	for t := range n {
		if len(s.R[t]) != n || len(s.S[t]) != n {
			return fmt.Errorf("schedule: stage %d: R and S rows are %d and %d wide; the graph has %d nodes", t, len(s.R[t]), len(s.S[t]), n)
		}
		if len(s.Free[t]) != m {
			return fmt.Errorf("schedule: stage %d: FREE row is %d wide; the graph has %d edges", t, len(s.Free[t]), m)
		}
	}
	return nil
}

// MoveDeallocationsEarlier performs the code-motion optimization of
// Section 4.9: each deallocation is hoisted to just after the last statement
// that actually uses the register (the producing compute or a consuming
// compute). Spurious checkpoints unused within a stage are thereby freed at
// the start of the stage rather than mid-stage. The transformation cannot
// increase peak memory; the solver's budget guarantee is preserved.
func MoveDeallocationsEarlier(g *graph.Graph, p *Plan) *Plan {
	lastUse := make([]int, p.NumRegs) // register -> statement index of last use
	for i := range lastUse {
		lastUse[i] = -1
	}
	// A register is used by its producing compute and by computes of its
	// consumers that occur while it is live. Only a node of g can be a
	// consumer's dependency, so allocations of other nodes are not tracked.
	regOf := make([]int, g.Len()) // node -> live register at scan point, -1 if none
	for i := range regOf {
		regOf[i] = -1
	}
	inGraph := func(v graph.NodeID) bool { return v >= 0 && int(v) < len(regOf) }
	deallocs := 0
	for si, st := range p.Stmts {
		switch st.Kind {
		case OpAllocate:
			if inGraph(st.Node) {
				regOf[st.Node] = st.Reg
			}
			lastUse[st.Reg] = si
		case OpCompute:
			lastUse[st.Reg] = si
			for _, d := range g.Deps(st.Node) {
				if r := regOf[d]; r >= 0 {
					lastUse[r] = si
				}
			}
		case OpDeallocate:
			deallocs++
			if node := p.RegNode[st.Reg]; inGraph(node) && regOf[node] == st.Reg {
				regOf[node] = -1
			}
		}
	}
	// Bucket the deallocations by the statement they now follow, keeping
	// plan order within a bucket (a counting sort). Once filled, the
	// registers freed after statement si are moved[end[si-1]:end[si]].
	// A register never used is never freed.
	end := make([]int, len(p.Stmts)+1)
	for _, st := range p.Stmts {
		if st.Kind == OpDeallocate && lastUse[st.Reg] >= 0 {
			end[lastUse[st.Reg]+1]++
		}
	}
	for si := range p.Stmts {
		end[si+1] += end[si]
	}
	moved := make([]int, end[len(p.Stmts)])
	for _, st := range p.Stmts {
		if st.Kind == OpDeallocate && lastUse[st.Reg] >= 0 {
			at := lastUse[st.Reg]
			moved[end[at]] = st.Reg
			end[at]++
		}
	}
	// Rebuild: emit deallocations immediately after their register's last
	// use.
	out := &Plan{NumRegs: p.NumRegs, RegNode: p.RegNode}
	if size := len(p.Stmts) - deallocs + len(moved); size > 0 {
		out.Stmts = make([]Stmt, 0, size)
	}
	from := 0
	for si, st := range p.Stmts {
		if st.Kind != OpDeallocate {
			out.Stmts = append(out.Stmts, st)
		}
		for _, r := range moved[from:end[si]] {
			out.Stmts = append(out.Stmts, Stmt{Kind: OpDeallocate, Reg: r, Stage: st.Stage})
		}
		from = end[si]
	}
	return out
}

// SimResult is the outcome of simulating a plan.
type SimResult struct {
	// PeakBytes is the high-water memory mark including the constant
	// overhead.
	PeakBytes int64
	// TotalCost is the summed cost of all computes.
	TotalCost float64
	// Computes counts compute statements.
	Computes int
	// Trace records memory-in-use after every statement (for Figure 1).
	Trace []int64
}

// Simulate executes the plan against the graph, enforcing correctness:
// computes require all dependencies resident, registers are written once,
// deallocations target live registers. overhead is added to all memory
// readings. A plan that names a register or node outside its own register
// count or the graph is an error, so a decoded plan can be simulated
// unchecked.
func Simulate(g *graph.Graph, p *Plan, overhead int64) (*SimResult, error) {
	if p.NumRegs < 0 {
		return nil, fmt.Errorf("schedule: plan has %d registers", p.NumRegs)
	}
	res := &SimResult{}
	if len(p.Stmts) > 0 {
		res.Trace = make([]int64, 0, len(p.Stmts))
	}
	var mem int64 = overhead
	res.PeakBytes = mem
	regLive := make([]bool, p.NumRegs)
	regWritten := make([]bool, p.NumRegs)
	valueReg := make([]int, g.Len()) // value -> register holding it, -1 if none
	for i := range valueReg {
		valueReg[i] = -1
	}
	badNode := func(si int, v graph.NodeID) error {
		if v >= 0 && int(v) < len(valueReg) {
			return nil
		}
		return fmt.Errorf("schedule: stmt %d: v%d is not a node of the %d-node graph", si, v, len(valueReg))
	}
	record := func() {
		res.Trace = append(res.Trace, mem)
		if mem > res.PeakBytes {
			res.PeakBytes = mem
		}
	}
	for si, st := range p.Stmts {
		switch st.Kind {
		case OpAllocate, OpCompute, OpDeallocate:
			if st.Reg < 0 || st.Reg >= p.NumRegs {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d of %d", si, st.Reg, p.NumRegs)
			}
		}
		switch st.Kind {
		case OpAllocate:
			if regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d allocated twice", si, st.Reg)
			}
			if err := badNode(si, st.Node); err != nil {
				return nil, err
			}
			regLive[st.Reg] = true
			mem += g.Node(st.Node).Mem
		case OpCompute:
			if !regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: compute into dead register %%r%d", si, st.Reg)
			}
			if regWritten[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d written twice", si, st.Reg)
			}
			if err := badNode(si, st.Node); err != nil {
				return nil, err
			}
			for _, d := range g.Deps(st.Node) {
				r := valueReg[d]
				if r < 0 || !regLive[r] || !regWritten[r] {
					return nil, fmt.Errorf("schedule: stmt %d: compute v%d missing dependency v%d", si, st.Node, d)
				}
			}
			regWritten[st.Reg] = true
			valueReg[st.Node] = st.Reg
			res.TotalCost += g.Node(st.Node).Cost
			res.Computes++
		case OpDeallocate:
			if !regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: double free of %%r%d", si, st.Reg)
			}
			if st.Reg >= len(p.RegNode) {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d has no producing node", si, st.Reg)
			}
			node := p.RegNode[st.Reg]
			if err := badNode(si, node); err != nil {
				return nil, err
			}
			regLive[st.Reg] = false
			mem -= g.Node(node).Mem
			if valueReg[node] == st.Reg {
				valueReg[node] = -1
			}
		}
		record()
	}
	return res, nil
}

// StageBoundaries returns, for each stage, the index of its first statement;
// used by visualizations.
func StageBoundaries(p *Plan) []int {
	var out []int
	last := -1
	for si, st := range p.Stmts {
		if st.Stage != last {
			out = append(out, si)
			last = st.Stage
		}
	}
	return out
}
