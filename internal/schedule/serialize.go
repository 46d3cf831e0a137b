package schedule

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// The paper's Checkmate system solves once ("minutes") and amortizes the
// schedule over "millions of training iterations" (Figure 2); that only
// works if solved schedules outlive the solver process. This file provides
// a stable JSON wire format for execution plans and the (R, S) matrices so
// schedules can be cached on disk and shipped to training jobs.

// planJSON is the serialized form of a Plan.
type planJSON struct {
	Version int        `json:"version"`
	NumRegs int        `json:"num_regs"`
	RegNode []int32    `json:"reg_node"`
	Stmts   []stmtJSON `json:"stmts"`
}

type stmtJSON struct {
	// K is "a" (allocate), "c" (compute) or "d" (deallocate).
	K string `json:"k"`
	N int32  `json:"n,omitempty"`
	R int    `json:"r"`
	T int    `json:"t"`
}

const planVersion = 1

// WriteJSON serializes the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	out := planJSON{Version: planVersion, NumRegs: p.NumRegs}
	for _, n := range p.RegNode {
		out.RegNode = append(out.RegNode, int32(n))
	}
	for _, st := range p.Stmts {
		var k string
		switch st.Kind {
		case OpAllocate:
			k = "a"
		case OpCompute:
			k = "c"
		case OpDeallocate:
			k = "d"
		}
		out.Stmts = append(out.Stmts, stmtJSON{K: k, N: int32(st.Node), R: st.Reg, T: st.Stage})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadPlanJSON deserializes a plan written by WriteJSON. It checks what it
// can without the graph: registers must be in range, node IDs non-negative,
// and every register must name its producing node. Simulate checks the
// nodes against the graph.
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("schedule: decoding plan: %w", err)
	}
	if in.Version != planVersion {
		return nil, fmt.Errorf("schedule: unsupported plan version %d", in.Version)
	}
	// Every register names its producing node, which bounds the register
	// count by the input's size.
	if in.NumRegs < 0 || len(in.RegNode) != in.NumRegs {
		return nil, fmt.Errorf("schedule: plan has %d registers but names the producers of %d", in.NumRegs, len(in.RegNode))
	}
	p := &Plan{NumRegs: in.NumRegs}
	for r, n := range in.RegNode {
		if n < 0 {
			return nil, fmt.Errorf("schedule: register %d is produced by node %d", r, n)
		}
		p.RegNode = append(p.RegNode, graph.NodeID(n))
	}
	for _, st := range in.Stmts {
		var k OpKind
		switch st.K {
		case "a":
			k = OpAllocate
		case "c":
			k = OpCompute
		case "d":
			k = OpDeallocate
		default:
			return nil, fmt.Errorf("schedule: unknown statement kind %q", st.K)
		}
		if st.R < 0 || st.R >= p.NumRegs {
			return nil, fmt.Errorf("schedule: statement references register %d of %d", st.R, p.NumRegs)
		}
		if st.N < 0 {
			return nil, fmt.Errorf("schedule: statement references node %d", st.N)
		}
		p.Stmts = append(p.Stmts, Stmt{Kind: k, Node: graph.NodeID(st.N), Reg: st.R, Stage: st.T})
	}
	return p, nil
}

// schedJSON is the serialized form of a core.Sched: R and S as bitset rows
// (hex strings would be smaller; keep it debuggable with 0/1 strings).
type schedJSON struct {
	Version int      `json:"version"`
	N       int      `json:"n"`
	Edges   int      `json:"edges"`
	R       []string `json:"r"`
	S       []string `json:"s"`
	Free    []string `json:"free"`
}

// WriteSchedJSON serializes a solved schedule.
func WriteSchedJSON(w io.Writer, s *core.Sched) error {
	out := schedJSON{Version: planVersion, N: s.N}
	if s.N > 0 {
		out.Edges = len(s.Free[0])
	}
	rowStr := func(row []bool) string {
		b := make([]byte, len(row))
		for i, v := range row {
			if v {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	for t := 0; t < s.N; t++ {
		out.R = append(out.R, rowStr(s.R[t]))
		out.S = append(out.S, rowStr(s.S[t]))
		out.Free = append(out.Free, rowStr(s.Free[t]))
	}
	return json.NewEncoder(w).Encode(out)
}

// ReadSchedJSON deserializes a schedule written by WriteSchedJSON.
func ReadSchedJSON(r io.Reader) (*core.Sched, error) {
	var in schedJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("schedule: decoding sched: %w", err)
	}
	if in.Version != planVersion {
		return nil, fmt.Errorf("schedule: unsupported sched version %d", in.Version)
	}
	if len(in.R) != in.N || len(in.S) != in.N || len(in.Free) != in.N {
		return nil, fmt.Errorf("schedule: row count mismatch")
	}
	if in.Edges < 0 {
		return nil, fmt.Errorf("schedule: sched has %d edges", in.Edges)
	}
	// Check every row's width before allocating, so that the matrices are
	// no larger than the input.
	for t := 0; t < in.N; t++ {
		if len(in.R[t]) != in.N || len(in.S[t]) != in.N || len(in.Free[t]) != in.Edges {
			return nil, fmt.Errorf("schedule: row %d has %d, %d and %d columns in R, S and FREE, want %d, %d and %d",
				t, len(in.R[t]), len(in.S[t]), len(in.Free[t]), in.N, in.N, in.Edges)
		}
	}
	s := core.NewSched(in.N, in.Edges)
	parse := func(dst []bool, src string, what string, t int) error {
		for i := range src {
			switch src[i] {
			case '1':
				dst[i] = true
			case '0':
			default:
				return fmt.Errorf("schedule: %s row %d has invalid byte %q", what, t, src[i])
			}
		}
		return nil
	}
	for t := 0; t < in.N; t++ {
		if err := parse(s.R[t], in.R[t], "R", t); err != nil {
			return nil, err
		}
		if err := parse(s.S[t], in.S[t], "S", t); err != nil {
			return nil, err
		}
		if err := parse(s.Free[t], in.Free[t], "FREE", t); err != nil {
			return nil, err
		}
	}
	return s, nil
}
