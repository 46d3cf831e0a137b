package checkmate

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/lp"
)

// TestZooDualStartKeepsBases: a dual simplex solve that ends with every
// basic variable within tolerance, but their summed residual just above it,
// keeps its basis and pivots on instead of restarting cold. unet at the
// benchmark grid's budgets (batch 4, 12 segments) hits that case on its
// branch-and-bound nodes and its ε-search LPs: every warm start must hold.
// The ε LPs run as an explicit chain through the formulation, because the
// search itself stops after its first LP at 50% (that rounding already
// reaches the ideal cost).
func TestZooDualStartKeepsBases(t *testing.T) {
	if testing.Short() {
		t.Skip("solves unet at two budgets with three methods")
	}
	wl, err := Load("unet", Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	at := func(frac float64) int64 { return lo + int64(frac*float64(hi-lo)) }
	ctx := context.Background()
	for _, m := range []Method{Optimal, Interval} {
		s, err := Solve(ctx, Request{Workload: wl, Method: m, Budget: at(0.3), TimeLimit: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if c := s.Solver; c.WarmHits == 0 || c.WarmMisses != 0 {
			t.Errorf("%s at 30%%: %d warm starts accepted, %d rejected; want every one accepted", m, c.WarmHits, c.WarmMisses)
		}
	}
	inst := core.Instance{G: wl.Graph, Budget: at(0.5), Overhead: wl.Overhead}
	f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	var solves, warm int
	var chain *lp.Basis
	for _, eps := range approx.EpsGrid() {
		f.SetBudget(approx.DeflatedBudget(inst.Budget, eps))
		rel, err := f.Relax(ctx, chain)
		solves++
		if rel.Warm {
			warm++
		}
		if errors.Is(err, core.ErrInfeasibleRelaxation) {
			break
		}
		if err != nil {
			t.Fatalf("approx ε=%v: %v", eps, err)
		}
		chain = rel.Basis
	}
	if solves < 2 || warm != solves-1 {
		t.Errorf("approx at 50%%: %d of %d ε LPs warm; want all but the first", warm, solves)
	}
}
