package schedule

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	g := chainGraph(6)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRegs != p.NumRegs || len(q.Stmts) != len(p.Stmts) {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range p.Stmts {
		if p.Stmts[i] != q.Stmts[i] {
			t.Fatalf("stmt %d: %v != %v", i, p.Stmts[i], q.Stmts[i])
		}
	}
	// The decoded plan must simulate identically.
	a, err := Simulate(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakBytes != b.PeakBytes || a.TotalCost != b.TotalCost {
		t.Fatal("round-tripped plan behaves differently")
	}
}

func TestPlanJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`{"version":99}`,
		`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"x","n":0,"r":0}]}`,
		`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"c","n":0,"r":5}]}`,
		`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"a","n":-1,"r":0}]}`,
		`{"version":1,"num_regs":1,"reg_node":[-2],"stmts":[{"k":"a","n":0,"r":0}]}`,
		`{"version":1,"num_regs":1,"reg_node":[],"stmts":[{"k":"a","r":0},{"k":"d","r":0}]}`,
		`{"version":1,"num_regs":-1,"reg_node":[],"stmts":[]}`,
	}
	for i, c := range cases {
		if _, err := ReadPlanJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestSimulateRejectsOutOfRange: a plan that names a register or node
// outside its register count or the graph is an error, not a panic.
func TestSimulateRejectsOutOfRange(t *testing.T) {
	g := chainGraph(2)
	alloc := func(n graph.NodeID) Stmt { return Stmt{Kind: OpAllocate, Node: n} }
	cases := []*Plan{
		{NumRegs: -1},
		{NumRegs: 1, RegNode: []graph.NodeID{0}, Stmts: []Stmt{alloc(5)}},
		{NumRegs: 1, RegNode: []graph.NodeID{0}, Stmts: []Stmt{alloc(-1)}},
		{NumRegs: 1, RegNode: []graph.NodeID{0}, Stmts: []Stmt{{Kind: OpCompute, Reg: 3}}},
		{NumRegs: 1, RegNode: []graph.NodeID{0}, Stmts: []Stmt{alloc(0), {Kind: OpCompute, Node: 7}}},
		{NumRegs: 1, Stmts: []Stmt{alloc(0), {Kind: OpDeallocate}}},
		{NumRegs: 1, RegNode: []graph.NodeID{9}, Stmts: []Stmt{alloc(0), {Kind: OpDeallocate}}},
	}
	for i, p := range cases {
		if _, err := Simulate(g, p, 0); err == nil {
			t.Fatalf("case %d simulated", i)
		}
	}
}

// FuzzReadPlanJSON: decoding a plan and simulating it against a graph never
// panics, whatever the input.
func FuzzReadPlanJSON(f *testing.F) {
	g := chainGraph(2)
	var valid bytes.Buffer
	if p, err := Generate(g, core.CheckpointAll(g)); err != nil {
		f.Fatal(err)
	} else if err := p.WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"a","n":5,"r":0,"t":0}]}`))
	f.Add([]byte(`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"a","n":-1,"r":0,"t":0}]}`))
	f.Add([]byte(`{"version":1,"num_regs":1,"reg_node":[],"stmts":[{"k":"a","n":0,"r":0,"t":0},{"k":"d","r":0,"t":0}]}`))
	f.Add([]byte(`{"version":1,"num_regs":-1,"reg_node":[],"stmts":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlanJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := Simulate(g, p, 0); err != nil {
			return
		}
		MoveDeallocationsEarlier(g, p)
	})
}

// foreignScheds are schedules shaped for another graph than the 2-node
// chain: two stages and no FREE column, one stage, and three stages.
var foreignScheds = []string{
	`{"version":1,"n":2,"edges":0,"r":["10","01"],"s":["00","10"],"free":["",""]}`,
	`{"version":1,"n":1,"edges":1,"r":["1"],"s":["0"],"free":["0"]}`,
	`{"version":1,"n":3,"edges":1,"r":["100","010","001"],"s":["000","100","010"],"free":["0","0","0"]}`,
}

// TestGenerateRejectsForeignShape: a schedule whose stage count or row
// widths are not the graph's is an error, not a panic.
func TestGenerateRejectsForeignShape(t *testing.T) {
	g := chainGraph(2)
	for i, c := range foreignScheds {
		s, err := ReadSchedJSON(strings.NewReader(c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, err := Generate(g, s); err == nil {
			t.Fatalf("case %d lowered", i)
		}
	}
	bad := []func(s *core.Sched){
		func(s *core.Sched) { s.N = 1 },
		func(s *core.Sched) { s.R = s.R[:1] },
		func(s *core.Sched) { s.S = append(s.S, s.S[0]) },
		func(s *core.Sched) { s.Free = s.Free[:1] },
		func(s *core.Sched) { s.R[1] = s.R[1][:1] },
		func(s *core.Sched) { s.S[0] = append(s.S[0], false) },
		func(s *core.Sched) { s.Free[1] = nil },
	}
	for i, mutate := range bad {
		s := core.IdealSched(g)
		mutate(s)
		if _, err := Generate(g, s); err == nil {
			t.Fatalf("mutation %d lowered", i)
		}
	}
	if _, err := Generate(g, core.IdealSched(g)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadSchedJSON: decoding a schedule, lowering it against a graph and
// simulating the plan never panics, whatever the input.
func FuzzReadSchedJSON(f *testing.F) {
	g := chainGraph(2)
	var valid bytes.Buffer
	if err := WriteSchedJSON(&valid, core.IdealSched(g)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, c := range foreignScheds {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSchedJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := Generate(g, s)
		if err != nil {
			return
		}
		// A plan may fail its simulation; only a panic fails the target.
		_, _ = Simulate(g, p, 0)
	})
}

func TestSchedJSONRoundTrip(t *testing.T) {
	g := chainGraph(5)
	s := core.CheckpointAll(g)
	var buf bytes.Buffer
	if err := WriteSchedJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	q, err := ReadSchedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != s.N {
		t.Fatal("size mismatch")
	}
	for t2 := 0; t2 < s.N; t2++ {
		for i := 0; i < s.N; i++ {
			if q.R[t2][i] != s.R[t2][i] || q.S[t2][i] != s.S[t2][i] {
				t.Fatalf("matrix mismatch at (%d,%d)", t2, i)
			}
		}
	}
	if err := q.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if q.Cost(g) != s.Cost(g) || q.Peak(g, 3) != s.Peak(g, 3) {
		t.Fatal("accounting differs after round trip")
	}
}

func TestSchedJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"version":1,"n":2,"edges":1,"r":["10"],"s":["00","00"],"free":["0","0"]}`,
		`{"version":1,"n":1,"edges":0,"r":["2"],"s":["0"],"free":[""]}`,
		`{"version":7,"n":0,"edges":0}`,
		`{"version":1,"n":1,"edges":-1,"r":["1"],"s":["0"],"free":[""]}`,
		`{"version":1,"n":1,"edges":1000000000000000,"r":["1"],"s":["0"],"free":["0"]}`,
	}
	for i, c := range cases {
		if _, err := ReadSchedJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}
