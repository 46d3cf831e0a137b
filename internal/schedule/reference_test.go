package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nets"
)

// This file keeps the dense bodies of the schedule kernels, as they were
// before the sparse rewrite: core's Sched.ComputeFree, MemUsage, Cost and
// Validate, and this package's Generate, MoveDeallocationsEarlier and
// Simulate. Between them they visit every stage × node and stage × edge
// entry, build the graph's edge list per call and key by Go maps. The
// sparse kernels must match them bit for bit: every FREE entry, U value and
// peak, cost, plan statement, simulation and error.

// refComputeFree is the dense Sched.ComputeFree.
func refComputeFree(s *core.Sched, g *graph.Graph) (selfFree [][]bool) {
	n := s.N
	edges := g.Edges()
	selfFree = refBoolMat(n, n)
	for t := 0; t < n; t++ {
		for ei, e := range edges {
			i, k := int(e[0]), int(e[1])
			s.Free[t][ei] = refFreeVal(s, g, t, i, k)
		}
		for k := 0; k < n; k++ {
			// Diagonal FREE_{t,k,k}: value k freed right after computing it.
			selfFree[t][k] = refFreeVal(s, g, t, k, k)
		}
	}
	return selfFree
}

func refBoolMat(r, c int) [][]bool {
	backing := make([]bool, r*c)
	m := make([][]bool, r)
	for i := range m {
		m[i] = backing[i*c : (i+1)*c]
	}
	return m
}

// refFreeVal is the Sched.freeVal the dense kernels call.
func refFreeVal(s *core.Sched, g *graph.Graph, t, i, k int) bool {
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
	if i == k {
		for _, j := range g.Users(graph.NodeID(i)) {
			if int(j) <= k && s.R[t][int(j)] {
				return false
			}
		}
	}
	return true
}

// refMemUsage is the dense Sched.MemUsage.
func refMemUsage(s *core.Sched, g *graph.Graph, overhead int64) *core.MemProfile {
	n := s.N
	edges := g.Edges()
	// Edge lookup by consumer.
	edgesInto := make([][]int, n) // k -> edge indices (i,k)
	for ei, e := range edges {
		edgesInto[e[1]] = append(edgesInto[e[1]], ei)
	}
	prof := &core.MemProfile{U: make([][]float64, n)}
	for t := 0; t < n; t++ {
		prof.U[t] = make([]float64, n)
		base := float64(overhead)
		for i := 0; i < n; i++ {
			if s.S[t][i] {
				base += float64(g.Node(graph.NodeID(i)).Mem)
			}
		}
		cur := base
		for k := 0; k < n; k++ {
			if s.R[t][k] {
				cur += float64(g.Node(graph.NodeID(k)).Mem)
			}
			prof.U[t][k] = cur
			if cur > prof.Peak {
				prof.Peak = cur
			}
			for _, ei := range edgesInto[k] {
				if s.Free[t][ei] {
					cur -= float64(g.Node(edges[ei][0]).Mem)
				}
			}
			if refFreeVal(s, g, t, k, k) {
				cur -= float64(g.Node(graph.NodeID(k)).Mem)
			}
		}
	}
	return prof
}

// refCost is Sched.Cost, indexing R by stage and node.
func refCost(s *core.Sched, g *graph.Graph) float64 {
	var c float64
	for t := 0; t < s.N; t++ {
		for i := 0; i < s.N; i++ {
			if s.R[t][i] {
				c += g.Node(graph.NodeID(i)).Cost
			}
		}
	}
	return c
}

// refValidate is Sched.Validate with its per-stage edge list.
func refValidate(s *core.Sched, g *graph.Graph, frontier bool) error {
	n := s.N
	if g.Len() != n {
		return fmt.Errorf("core: schedule size %d != graph size %d", n, g.Len())
	}
	computedLast := false
	for t := 0; t < n; t++ {
		if s.R[t][n-1] {
			computedLast = true
		}
		for _, e := range g.Edges() {
			i, j := int(e[0]), int(e[1])
			if s.R[t][j] && !s.R[t][i] && !s.S[t][i] {
				return fmt.Errorf("core: stage %d computes %d without dependency %d resident (1b)", t, j, i)
			}
		}
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

// refGenerate is the dense Generate.
func refGenerate(g *graph.Graph, s *core.Sched) (*Plan, error) {
	n := s.N
	edges := g.Edges()
	edgesInto := make([][]int, n)
	for ei, e := range edges {
		edgesInto[e[1]] = append(edgesInto[e[1]], ei)
	}
	selfFree := refComputeFree(s, g)

	p := &Plan{}
	regs := make([]int, n)
	for i := range regs {
		regs[i] = -1
	}
	newReg := func(v graph.NodeID) int {
		r := p.NumRegs
		p.NumRegs++
		p.RegNode = append(p.RegNode, v)
		return r
	}
	for t := 0; t < n; t++ {
		if t > 0 {
			for i := 0; i < n; i++ {
				if regs[i] >= 0 && !s.S[t][i] {
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[i], Stage: t})
					regs[i] = -1
				}
			}
		}
		for k := 0; k < n; k++ {
			if s.R[t][k] {
				r := newReg(graph.NodeID(k))
				p.Stmts = append(p.Stmts,
					Stmt{Kind: OpAllocate, Node: graph.NodeID(k), Reg: r, Stage: t},
					Stmt{Kind: OpCompute, Node: graph.NodeID(k), Reg: r, Stage: t})
				regs[k] = r
			}
			for _, ei := range edgesInto[k] {
				if s.Free[t][ei] {
					i := int(edges[ei][0])
					if regs[i] < 0 {
						return nil, fmt.Errorf("schedule: stage %d frees value %d with no live register", t, i)
					}
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[i], Stage: t})
					regs[i] = -1
				}
			}
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

// refMoveDeallocationsEarlier is MoveDeallocationsEarlier with its two maps.
func refMoveDeallocationsEarlier(g *graph.Graph, p *Plan) *Plan {
	lastUse := make([]int, p.NumRegs)
	for i := range lastUse {
		lastUse[i] = -1
	}
	regOf := make(map[graph.NodeID]int)
	for si, st := range p.Stmts {
		switch st.Kind {
		case OpAllocate:
			regOf[st.Node] = st.Reg
			lastUse[st.Reg] = si
		case OpCompute:
			lastUse[st.Reg] = si
			for _, d := range g.Deps(st.Node) {
				if r, ok := regOf[d]; ok {
					lastUse[r] = si
				}
			}
		case OpDeallocate:
			node := p.RegNode[st.Reg]
			if regOf[node] == st.Reg {
				delete(regOf, node)
			}
		}
	}
	dealloc := make(map[int][]int)
	for _, st := range p.Stmts {
		if st.Kind == OpDeallocate {
			at := lastUse[st.Reg]
			dealloc[at] = append(dealloc[at], st.Reg)
		}
	}
	out := &Plan{NumRegs: p.NumRegs, RegNode: p.RegNode}
	for si, st := range p.Stmts {
		if st.Kind != OpDeallocate {
			out.Stmts = append(out.Stmts, st)
		}
		for _, r := range dealloc[si] {
			out.Stmts = append(out.Stmts, Stmt{Kind: OpDeallocate, Reg: r, Stage: st.Stage})
		}
	}
	return out
}

// refSimulate is Simulate with its value → register map. It panics where
// Simulate returns a range error, so it is only given plans in range.
func refSimulate(g *graph.Graph, p *Plan, overhead int64) (*SimResult, error) {
	res := &SimResult{}
	var mem int64 = overhead
	res.PeakBytes = mem
	regLive := make([]bool, p.NumRegs)
	regWritten := make([]bool, p.NumRegs)
	valueReg := make(map[graph.NodeID]int)
	record := func() {
		res.Trace = append(res.Trace, mem)
		if mem > res.PeakBytes {
			res.PeakBytes = mem
		}
	}
	for si, st := range p.Stmts {
		switch st.Kind {
		case OpAllocate:
			if regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d allocated twice", si, st.Reg)
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
			for _, d := range g.Deps(st.Node) {
				r, ok := valueReg[d]
				if !ok || !regLive[r] || !regWritten[r] {
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
			regLive[st.Reg] = false
			node := p.RegNode[st.Reg]
			mem -= g.Node(node).Mem
			if r, ok := valueReg[node]; ok && r == st.Reg {
				delete(valueReg, node)
			}
		}
		record()
	}
	return res, nil
}

// refGraph is a graph the kernels are compared on.
type refGraph struct {
	name     string
	g        *graph.Graph
	overhead int64
}

// randomRefDAG builds a random n-node DAG, mostly on a spine, with edges
// from every earlier node at the given density. Sizes spread from 1 B to
// 2^55 B, so float sums of them round and their order shows in the bits.
func randomRefDAG(rng *rand.Rand, n int, density float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Cost: rng.Float64() * 10, Mem: 1 + rng.Int63n(1<<rng.Intn(56))})
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if (i == j-1 && rng.Float64() < 0.9) || rng.Float64() < density {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return g
}

// refGraphs returns random DAGs, the training graphs of random chains with
// skips, and every zoo model's training graph at batch 4 with 12 segments.
func refGraphs(t testing.TB, random int) []refGraph {
	rng := rand.New(rand.NewSource(25))
	var out []refGraph
	for i := 0; i < random; i++ {
		g := randomRefDAG(rng, rng.Intn(31), []float64{0.05, 0.2, 0.5}[i%3])
		out = append(out, refGraph{fmt.Sprintf("random%d", i), g, rng.Int63n(1 << 50)})
		if i%4 == 0 {
			fwd := graph.New(0)
			for j := 0; j < 2+rng.Intn(10); j++ {
				fwd.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(1<<20))})
				if j > 0 {
					fwd.MustEdge(graph.NodeID(j-1), graph.NodeID(j))
				}
				if j >= 2 && rng.Float64() < 0.4 {
					fwd.MustEdge(graph.NodeID(rng.Intn(j-1)), graph.NodeID(j))
				}
			}
			ad, err := autodiff.Differentiate(fwd, autodiff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, refGraph{fmt.Sprintf("training%d", i), ad.Graph, 0})
		}
	}
	for _, name := range nets.Names() {
		out = append(out, zooRefGraph(t, name))
	}
	return out
}

func zooRefGraph(t testing.TB, name string) refGraph {
	net, err := nets.ByName(name, nets.Config{Model: costmodel.NewRoofline(costmodel.V100()), Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := net.Training(autodiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return refGraph{name, ad.Graph, net.Overhead()}
}

// randomCheckpoints returns a random strictly lower-triangular S: value i
// retained into stage t > i with probability p.
func randomCheckpoints(rng *rand.Rand, n int, p float64) [][]bool {
	S := refBoolMat(n, n)
	for t := range S {
		for i := 0; i < t; i++ {
			S[t][i] = rng.Float64() < p
		}
	}
	return S
}

func cloneSched(s *core.Sched) *core.Sched {
	m := 0
	if s.N > 0 {
		m = len(s.Free[0])
	}
	c := core.NewSched(s.N, m)
	for t := 0; t < s.N; t++ {
		copy(c.R[t], s.R[t])
		copy(c.S[t], s.S[t])
		copy(c.Free[t], s.Free[t])
	}
	return c
}

// refSched is a named schedule the kernels are compared on.
type refSched struct {
	name string
	s    *core.Sched
}

// refScheds returns the schedules the kernels are compared on: the ideal and
// checkpoint-all schedules, SolveMinR completions of sparse and dense random
// checkpoints, one of those with its Free rows scrambled, and a random
// frontier-advancing R and S left unrepaired, which breaks (1b) and (1c).
func refScheds(rng *rand.Rand, g *graph.Graph) []refSched {
	n := g.Len()
	dense := core.SolveMinR(g, randomCheckpoints(rng, n, 0.7))
	dirty := cloneSched(dense)
	for t := range dirty.Free {
		for ei := range dirty.Free[t] {
			dirty.Free[t][ei] = rng.Float64() < 0.5
		}
	}
	raw := core.NewSched(n, g.NumEdges())
	S := randomCheckpoints(rng, n, 0.3)
	for t := 0; t < n; t++ {
		copy(raw.S[t], S[t])
		raw.R[t][t] = true
		for i := 0; i < t; i++ {
			raw.R[t][i] = rng.Float64() < 0.2
		}
	}
	return []refSched{
		{"ideal", core.IdealSched(g)},
		{"checkpoint-all", core.CheckpointAll(g)},
		{"minr-sparse", core.SolveMinR(g, randomCheckpoints(rng, n, 0.1))},
		{"minr-dense", dense},
		{"dirty-free", dirty},
		{"unrepaired", raw},
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// mangledPlans returns copies of p with one statement dropped and one
// repeated, which simulate to each of Simulate's errors in turn.
func mangledPlans(rng *rand.Rand, p *Plan) []*Plan {
	if len(p.Stmts) == 0 {
		return nil
	}
	at := rng.Intn(len(p.Stmts))
	dropped := *p
	dropped.Stmts = append(append([]Stmt(nil), p.Stmts[:at]...), p.Stmts[at+1:]...)
	repeated := *p
	repeated.Stmts = append(append([]Stmt(nil), p.Stmts[:at+1]...), p.Stmts[at:]...)
	return []*Plan{&dropped, &repeated}
}

// TestKernelsMatchReference: on random DAGs and on every zoo model, the
// sparse kernels return exactly what the dense reference bodies do.
func TestKernelsMatchReference(t *testing.T) {
	random := 300
	if testing.Short() {
		random = 60
	}
	rng := rand.New(rand.NewSource(1))
	for _, rg := range refGraphs(t, random) {
		for _, rs := range refScheds(rng, rg.g) {
			checkKernels(t, rng, rg.name+"/"+rs.name, rg.g, rs.s, rg.overhead)
		}
	}
}

func checkKernels(t *testing.T, rng *rand.Rand, name string, g *graph.Graph, s *core.Sched, overhead int64) {
	t.Helper()
	ref, got := cloneSched(s), cloneSched(s)
	for _, frontier := range []bool{true, false} {
		if want, have := errText(refValidate(ref, g, frontier)), errText(got.Validate(g, frontier)); want != have {
			t.Fatalf("%s: Validate(frontier=%v) = %s, reference %s", name, frontier, have, want)
		}
	}
	refSelf, gotSelf := refComputeFree(ref, g), got.ComputeFree(g)
	if !reflect.DeepEqual(ref.Free, got.Free) || !reflect.DeepEqual(refSelf, gotSelf) {
		t.Fatalf("%s: ComputeFree differs from the reference", name)
	}
	if want, have := refCost(s, g), s.Cost(g); math.Float64bits(want) != math.Float64bits(have) {
		t.Fatalf("%s: Cost %v, reference %v", name, have, want)
	}
	refProf, gotProf := refMemUsage(ref, g, overhead), got.MemUsage(g, overhead)
	if math.Float64bits(refProf.Peak) != math.Float64bits(gotProf.Peak) || len(refProf.U) != len(gotProf.U) {
		t.Fatalf("%s: MemUsage peak %v, reference %v", name, gotProf.Peak, refProf.Peak)
	}
	for st := range refProf.U {
		for k, u := range refProf.U[st] {
			if math.Float64bits(u) != math.Float64bits(gotProf.U[st][k]) {
				t.Fatalf("%s: U[%d][%d] = %v, reference %v", name, st, k, gotProf.U[st][k], u)
			}
		}
	}

	// Generate recomputes FREE itself, so lower fresh copies: a scrambled
	// Free reaches it as it is.
	refPlan, refErr := refGenerate(g, cloneSched(s))
	gotPlan, gotErr := Generate(g, cloneSched(s))
	if errText(refErr) != errText(gotErr) || !reflect.DeepEqual(refPlan, gotPlan) {
		t.Fatalf("%s: Generate = %v, %s; reference %v, %s", name, gotPlan, errText(gotErr), refPlan, errText(refErr))
	}
	if refErr != nil {
		return
	}
	plans := []*Plan{gotPlan, MoveDeallocationsEarlier(g, gotPlan)}
	if want := refMoveDeallocationsEarlier(g, gotPlan); !reflect.DeepEqual(want, plans[1]) {
		t.Fatalf("%s: MoveDeallocationsEarlier differs from the reference", name)
	}
	for _, p := range mangledPlans(rng, gotPlan) {
		moved := MoveDeallocationsEarlier(g, p)
		if want := refMoveDeallocationsEarlier(g, p); !reflect.DeepEqual(want, moved) {
			t.Fatalf("%s: MoveDeallocationsEarlier of a mangled plan differs from the reference", name)
		}
		plans = append(plans, p, moved)
	}
	for i, p := range plans {
		want, wantErr := refSimulate(g, p, overhead)
		have, haveErr := Simulate(g, p, overhead)
		if errText(wantErr) != errText(haveErr) || !reflect.DeepEqual(want, have) {
			t.Fatalf("%s: Simulate of plan %d = %+v, %s; reference %+v, %s", name, i, have, errText(haveErr), want, errText(wantErr))
		}
		if want != nil && math.Float64bits(want.TotalCost) != math.Float64bits(have.TotalCost) {
			t.Fatalf("%s: Simulate of plan %d costs %v, reference %v", name, i, have.TotalCost, want.TotalCost)
		}
	}
}

// BenchmarkKernels times each schedule kernel and its dense reference on
// resnet50's ideal schedule (batch 4, 12 segments), the lowering a
// presolved solve runs.
func BenchmarkKernels(b *testing.B) {
	rg := zooRefGraph(b, "resnet50")
	g, s := rg.g, core.IdealSched(rg.g)
	plan, err := Generate(g, s)
	if err != nil {
		b.Fatal(err)
	}
	kernels := []struct {
		name          string
		sparse, dense func()
	}{
		{"ComputeFree", func() { s.ComputeFree(g) }, func() { refComputeFree(s, g) }},
		{"MemUsage", func() { s.MemUsage(g, rg.overhead) }, func() { refMemUsage(s, g, rg.overhead) }},
		{"Generate", func() { Generate(g, s) }, func() { refGenerate(g, s) }},
		{"MoveDeallocationsEarlier", func() { MoveDeallocationsEarlier(g, plan) }, func() { refMoveDeallocationsEarlier(g, plan) }},
		{"Simulate", func() { Simulate(g, plan, rg.overhead) }, func() { refSimulate(g, plan, rg.overhead) }},
	}
	for _, k := range kernels {
		for _, v := range []struct {
			name string
			run  func()
		}{{"sparse", k.sparse}, {"dense", k.dense}} {
			b.Run(k.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run()
				}
			})
		}
	}
}
