package approx_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/checkmate"
	"repro/internal/approx"
	"repro/internal/core"
)

// TestSearchStopsAtFirstInfeasibleEps: on transformer at the benchmark
// grid's 30% budget (batch 4, 12 segments) the relaxation is already
// infeasible at ε=0.05. The search stops there, counts that LP, and returns
// the ε=0 rounding — the same schedule a search over every ε finds, since
// each LP past 0.05 is infeasible too.
func TestSearchStopsAtFirstInfeasibleEps(t *testing.T) {
	if testing.Short() {
		t.Skip("solves seven transformer-sized LPs")
	}
	wl, err := checkmate.Load("transformer", checkmate.Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	inst := core.Instance{G: wl.Graph, Budget: lo + int64(0.3*float64(hi-lo)), Overhead: wl.Overhead}
	ctx := context.Background()
	got, err := approx.SolveWithSearch(ctx, inst, approx.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: every ε of the sweep, each LP solved cold on its own.
	var want *core.Sched
	for _, eps := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5} {
		f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
		if err != nil {
			t.Fatal(err)
		}
		f.SetBudget(int64(float64(inst.Budget) * (1 - eps)))
		rel, err := f.Relax(ctx, nil)
		if eps > 0 {
			if !errors.Is(err, core.ErrInfeasibleRelaxation) {
				t.Fatalf("ε=%v: relaxation error %v, want ErrInfeasibleRelaxation", eps, err)
			}
			if rel == nil || rel.Iters == 0 {
				t.Fatalf("ε=%v: infeasible relaxation reports no simplex work: %+v", eps, rel)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ε=0: %v", err)
		}
		want = core.TwoPhaseRound(inst.G, rel.FS, 0.5, nil)
	}

	if got.Search.LPSolves != 2 {
		t.Errorf("search ran %d LPs, want 2: ε=0 and the infeasible ε=0.05", got.Search.LPSolves)
	}
	if got.Search.WarmHits != 1 {
		t.Errorf("search reports %d warm LPs, want 1 (ε=0.05 from ε=0's basis)", got.Search.WarmHits)
	}
	if !reflect.DeepEqual(got.Sched, want) {
		t.Error("search schedule differs from the ε=0 rounding")
	}
	if c := want.Cost(inst.G); got.Cost != c || !got.Feasible {
		t.Errorf("search cost %v (feasible %v), ε=0 rounding %v", got.Cost, got.Feasible, c)
	}
}
