package approx_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/checkmate"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/lp"
)

// sweep is the outcome of a reference ε sweep without the ideal-cost stop.
type sweep struct {
	best *core.Sched // cheapest feasible rounding, first one on ties; nil if none
	// lps is how many LPs a search that stops only at the first infeasible
	// LP runs; idealAt is how many it has run when its best first computes
	// every node once (0 if it never does).
	lps, idealAt int
}

// referenceSweep solves every ε of approx.EpsGrid on one formulation,
// chaining each optimal basis into the next LP the way the search does,
// and rounds every optimal LP at the default threshold. It keeps going past
// infeasible LPs, so it is the full sweep's answer whatever the search
// skips.
func referenceSweep(t *testing.T, inst core.Instance) sweep {
	t.Helper()
	f, err := core.Build(inst, core.BuildOptions{FrontierAdvancing: true})
	if err != nil {
		t.Fatal(err)
	}
	var sw sweep
	bestCost := 0.0
	infeasible := false
	var chain *lp.Basis
	for _, eps := range approx.EpsGrid() {
		if !infeasible {
			sw.lps++
		}
		f.SetBudget(approx.DeflatedBudget(inst.Budget, eps))
		rel, err := f.Relax(context.Background(), chain)
		if errors.Is(err, core.ErrInfeasibleRelaxation) {
			infeasible = true
			continue
		}
		if err != nil {
			t.Fatalf("ε=%v: %v", eps, err)
		}
		chain = rel.Basis
		s := core.TwoPhaseRound(inst.G, rel.FS, 0.5, nil)
		if c := s.Cost(inst.G); s.Peak(inst.G, inst.Overhead) <= float64(inst.Budget) && (sw.best == nil || c < bestCost) {
			sw.best, bestCost = s, c
		}
		if sw.idealAt == 0 && sw.best != nil && sw.best.Recomputations() == 0 {
			sw.idealAt = sw.lps
		}
	}
	return sw
}

// checkAgainstReference runs the search on inst and checks that it returns
// the reference sweep's schedule and cost, and that it ran exactly the LPs
// up to its first ideal-cost rounding (or, without one, up to its first
// infeasible LP). It returns the search's LP count and whether the
// ideal-cost stop applied.
func checkAgainstReference(t *testing.T, inst core.Instance) (lps int, stopped bool) {
	t.Helper()
	ref := referenceSweep(t, inst)
	got, err := approx.SolveWithSearch(context.Background(), inst, approx.Options{})
	if ref.best == nil {
		if !errors.Is(err, approx.ErrNoFeasibleRounding) {
			t.Fatalf("no reference rounding fits, search returned %v", err)
		}
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sched, ref.best) {
		t.Error("search schedule differs from the reference sweep's")
	}
	if c := ref.best.Cost(inst.G); got.Cost != c || !got.Feasible {
		t.Errorf("search cost %v (feasible %v), reference %v", got.Cost, got.Feasible, c)
	}
	want := ref.lps
	if ref.idealAt > 0 {
		want = ref.idealAt
	}
	if got.Search.LPSolves != want {
		t.Errorf("search ran %d LPs, want %d (reference: %d LPs to the first infeasible one, ideal cost after %d)",
			got.Search.LPSolves, want, ref.lps, ref.idealAt)
	}
	return got.Search.LPSolves, ref.idealAt > 0
}

// TestSearchStopsAtIdealCostZoo: at the benchmark grid's budgets (batch 4,
// 12 segments) the search returns the full sweep's schedule and cost, and
// stops after the first LP wherever that LP's rounding computes every node
// once.
func TestSearchStopsAtIdealCostZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("solves four zoo models at two budgets, twice each")
	}
	for _, tc := range []struct {
		model string
		frac  float64
		lps   int
	}{
		{"vgg16", 0.3, 1}, {"vgg16", 0.5, 1},
		{"mobilenet", 0.3, 1}, {"mobilenet", 0.5, 1},
		{"unet", 0.3, 6}, {"unet", 0.5, 1},
		{"transformer", 0.3, 2}, {"transformer", 0.5, 1},
	} {
		t.Run(fmt.Sprintf("%s/%.0f%%", tc.model, 100*tc.frac), func(t *testing.T) {
			wl, err := checkmate.Load(tc.model, checkmate.Options{Batch: 4, CoarseSegments: 12})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
			inst := core.Instance{G: wl.Graph, Budget: lo + int64(tc.frac*float64(hi-lo)), Overhead: wl.Overhead}
			if lps, _ := checkAgainstReference(t, inst); lps != tc.lps {
				t.Errorf("search ran %d LPs, want %d", lps, tc.lps)
			}
		})
	}
}

// TestSearchStopsAtIdealCostChain: on the solver benchmark's 10-layer
// training chain the first rounding reaches the ideal cost from budget 11
// up, and the search stops there; below it the search runs its full chain.
// Either way it returns the full sweep's answer.
func TestSearchStopsAtIdealCostChain(t *testing.T) {
	for b := int64(5); b <= 20; b++ {
		t.Run(fmt.Sprint(b), func(t *testing.T) {
			inst := approx.TrainInstance(t, 10, b)
			if _, stopped := checkAgainstReference(t, inst); stopped != (b >= 11) {
				t.Errorf("ideal-cost stop applied: %v, want %v", stopped, b >= 11)
			}
		})
	}
}
