package interval

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// refEvaluate is evaluate as it was before the memo and the scratch
// storage: it completes every start vector in freshly allocated matrices.
func refEvaluate(pb *problem, start []int32) (s *core.Sched, cost float64, ok bool, peakStage int) {
	n := pb.n
	backing := make([]bool, n*n)
	S := make([][]bool, n)
	for t := range S {
		S[t] = backing[t*n : (t+1)*n]
	}
	for wi := range pb.wins {
		w := &pb.wins[wi]
		for t := int(start[wi]); t <= w.to; t++ {
			S[t][w.val] = true
		}
	}
	s = core.SolveMinR(pb.g, S)
	prof := s.MemUsage(pb.g, pb.overhead)
	cost = s.Cost(pb.g)
	if prof.Peak <= pb.budget+memTol {
		return s, cost, true, 0
	}
	for t := 0; t < n; t++ {
		for _, u := range prof.U[t] {
			if u >= prof.Peak {
				peakStage = t
			}
		}
	}
	return s, cost, false, peakStage
}

// searchTrace is what a search's evaluations and incumbents looked like.
type searchTrace struct {
	res        *Result
	pb         *problem
	evals      int
	incumbents []float64
	// replayed holds the start vectors that the search's incumbent rule
	// accepts, in order, replayed over the reference's verdicts.
	replayed [][]int32
}

func traceSearch(t *testing.T, name string, inst core.Instance, memoCap int) *searchTrace {
	t.Helper()
	tr := &searchTrace{}
	bestCost := math.Inf(1)
	opt := Options{OnIncumbent: func(obj, _ float64) { tr.incumbents = append(tr.incumbents, obj) }}
	res, err := solve(context.Background(), inst, opt, func(pb *problem) {
		tr.pb = pb
		pb.memoCap = memoCap
		pb.scored = func(start []int32, e evaluation) {
			tr.evals++
			_, cost, ok, peak := refEvaluate(pb, start)
			if math.Float64bits(e.cost) != math.Float64bits(cost) || e.ok != ok || e.peakStage != peak {
				t.Fatalf("%s: start %v scored %+v, reference cost %v ok %v peak stage %d", name, start, e, cost, ok, peak)
			}
			if ok && cost < bestCost-1e-12 {
				bestCost = cost
				tr.replayed = append(tr.replayed, append([]int32(nil), start...))
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr.res = res
	return tr
}

// Every start vector a search scores gets the reference's cost bits,
// verdict and peak stage, with the memo at its cap and with no memo, and
// every incumbent's schedule is the one the reference completes. The two
// searches agree on every result and counter.
func TestEvaluateMatchesReference(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	searched, hits := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		inst := trainInstance(seed)
		var traces []*searchTrace
		for _, memoCap := range []int{memoCapBytes, 0} {
			name := fmt.Sprintf("seed %d, memo cap %d", seed, memoCap)
			tr := traceSearch(t, name, inst, memoCap)
			traces = append(traces, tr)
			if tr.pb == nil {
				continue // infeasible before the search
			}
			searched++
			hits += tr.pb.hits
			if tr.evals != tr.pb.evals || (memoCap == 0 && (tr.pb.hits != 0 || len(tr.pb.memo) != 0)) {
				t.Fatalf("%s: %d evaluations seen, %d counted, %d hits, %d memo entries", name, tr.evals, tr.pb.evals, tr.pb.hits, len(tr.pb.memo))
			}
			if !reflect.DeepEqual(tr.incumbents, replayedCosts(tr)) {
				t.Fatalf("%s: incumbents %v, replay %v", name, tr.incumbents, replayedCosts(tr))
			}
			for _, start := range tr.replayed {
				want, _, _, _ := refEvaluate(tr.pb, start)
				if got := tr.pb.schedule(start); !sameSched(got, want) {
					t.Fatalf("%s: incumbent %v completes to another schedule than the reference's", name, start)
				}
			}
			if n := len(tr.replayed); n > 0 {
				if want, _, _, _ := refEvaluate(tr.pb, tr.replayed[n-1]); !sameSched(tr.res.Sched, want) {
					t.Fatalf("%s: result schedule differs from the reference's", name)
				}
			} else if tr.res.Sched != nil {
				t.Fatalf("%s: a schedule without an incumbent", name)
			}
		}
		a, b := traces[0], traces[1]
		if !sameResult(a.res, b.res) || a.evals != b.evals {
			t.Fatalf("seed %d: memo changes the search: %+v (%d evaluations) against %+v (%d)", seed, a.res, a.evals, b.res, b.evals)
		}
	}
	if searched == 0 || hits == 0 {
		t.Fatalf("%d searches, %d memo hits: the memo went unexercised", searched, hits)
	}
}

func replayedCosts(tr *searchTrace) []float64 {
	var out []float64
	for _, start := range tr.replayed {
		_, cost, _, _ := refEvaluate(tr.pb, start)
		out = append(out, cost)
	}
	return out
}

func sameSched(a, b *core.Sched) bool {
	return a != nil && b != nil && reflect.DeepEqual(a.R, b.R) && reflect.DeepEqual(a.S, b.S) && reflect.DeepEqual(a.Free, b.Free)
}

func sameResult(a, b *Result) bool {
	ca, cb := a.Solver, b.Solver
	ca.NodesPerSec, cb.NodesPerSec = 0, 0
	return math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound) &&
		a.Status == b.Status && a.Nodes == b.Nodes && ca == cb &&
		(a.Sched == nil) == (b.Sched == nil) && (a.Sched == nil || sameSched(a.Sched, b.Sched))
}
