package experiments

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale {
	return Scale{Segments: 6, BudgetPoints: 3, TimeLimit: 8 * time.Second, RelGap: 0.1}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"checkmate-ilp", "griewank-logn", "memory-aware"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q", want)
		}
	}
}

func TestFig3ShapesMatchPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("fig3 produced %d lines", len(lines))
	}
	// Every survey model must be present.
	for _, m := range []string{"alexnet", "vgg19", "roberta", "unet"} {
		if !strings.Contains(buf.String(), m) {
			t.Fatalf("fig3 missing model %s", m)
		}
	}
}

func TestFig1ShapeReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("solves an ILP")
	}
	var buf bytes.Buffer
	if err := Fig1(context.Background(), &buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "retain-all:") || !strings.Contains(out, "rematerialize:") {
		t.Fatalf("fig1 output malformed:\n%s", out)
	}
}

func TestFig5CheckmateDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("solves ILPs")
	}
	pts, err := Fig5(context.Background(), io.Discard, "mobilenet", 8, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// At every budget where the ILP is feasible, its overhead must be ≤
	// every feasible baseline's (within solver gap).
	ilp := map[float64]float64{}
	for _, p := range pts {
		if p.Strategy == "checkmate-ilp" && p.Feasible {
			ilp[p.BudgetGB] = p.Overhead
		}
	}
	if len(ilp) == 0 {
		t.Fatal("ILP never feasible in sweep")
	}
	for _, p := range pts {
		if p.Strategy == "checkmate-ilp" || !p.Feasible {
			continue
		}
		if v, ok := ilp[p.BudgetGB]; ok && v > p.Overhead*1.12+1e-9 {
			t.Fatalf("%s beats ILP at %.2f GB: %.4f vs %.4f", p.Strategy, p.BudgetGB, p.Overhead, v)
		}
	}
}

func TestTable2RatiosAtLeastOne(t *testing.T) {
	if testing.Short() {
		t.Skip("solves ILPs")
	}
	rows, err := Table2(context.Background(), io.Discard, []string{"mobilenet"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	for name, v := range map[string]float64{"ap-sqrt": r.APSqrtN, "two-phase": r.TwoPhase} {
		if !isNaN(v) && v < 1-0.02 { // small solver gap allowance
			t.Fatalf("%s ratio %v below 1", name, v)
		}
	}
}

func isNaN(f float64) bool { return f != f }

func TestFig6MonotoneInStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("binary searches with ILP probes")
	}
	rows, err := Fig6(context.Background(), io.Discard, []string{"mobilenet"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CheckpointAll <= 0 {
		t.Fatal("checkpoint-all found no feasible batch")
	}
	// Checkmate's feasible set contains every baseline schedule, so its max
	// batch can never be smaller.
	if r.Checkmate < r.CheckpointAll || r.Checkmate < r.APSqrtN || r.Checkmate < r.LinGreedy {
		t.Fatalf("checkmate %d below a baseline (%d/%d/%d)", r.Checkmate, r.CheckpointAll, r.APSqrtN, r.LinGreedy)
	}
}

func TestFig7RendersThreeSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("solves an ILP")
	}
	var buf bytes.Buffer
	if err := Fig7(context.Background(), &buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "-- "); got < 3 {
		t.Fatalf("fig7 rendered %d schedules, want 3", got)
	}
}

func TestFig8Samples(t *testing.T) {
	if testing.Short() {
		t.Skip("solves LP relaxations")
	}
	var buf bytes.Buffer
	if err := Fig8(context.Background(), &buf, []string{"mobilenet"}, tinyScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deterministic:") {
		t.Fatal("fig8 missing deterministic row")
	}
}

func TestTargetUnknownModel(t *testing.T) {
	if _, err := target("nope", 1, false, tinyScale()); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestCompareSolverPerfParallelClause: the gate fails a parallel node rate
// below (1 − tol) of the serial one, and skips the check for a record made
// on one CPU, where the workers time-slice.
func TestCompareSolverPerfParallelClause(t *testing.T) {
	base := &SolverPerf{ParNodesPerS: 300}
	for _, tc := range []struct {
		ratio float64
		cpus  int
		fail  bool
	}{{0.79, 2, true}, {0.81, 2, false}, {0.79, 1, false}} {
		cur := &SolverPerf{BenchCPUs: tc.cpus, ThreadsUsed: 2, NodesPerSec: 100, ParNodesPerS: 100 * tc.ratio}
		if regs := CompareSolverPerf(base, cur, 0.2); (len(regs) > 0) != tc.fail {
			t.Errorf("ratio %.2f on %d CPUs: regressions %q, want failure %v", tc.ratio, tc.cpus, regs, tc.fail)
		}
	}
}
