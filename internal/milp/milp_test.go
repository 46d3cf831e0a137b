package milp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lp"
)

func mkKnapsack(values, weights []float64, cap float64) *Problem {
	p := &lp.Problem{}
	n := len(values)
	idx := make([]int32, n)
	for j := 0; j < n; j++ {
		idx[j] = int32(p.AddVar(0, 1, -values[j], "x")) // maximize values
	}
	p.AddRow(lp.LE, cap, idx, weights)
	ints := make([]bool, n)
	for j := range ints {
		ints[j] = true
	}
	return &Problem{LP: p, Integer: ints}
}

// bruteKnapsack exhaustively solves a 0/1 knapsack (maximization).
func bruteKnapsack(values, weights []float64, cap float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += values[j]
				w += weights[j]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackExact(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 5}
	weights := []float64{3, 4, 2, 3, 1, 2}
	prob := mkKnapsack(values, weights, 7)
	sol := Solve(prob, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	want := bruteKnapsack(values, weights, 7)
	if math.Abs(-sol.Obj-want) > 1e-6 {
		t.Fatalf("obj=%v want %v", -sol.Obj, want)
	}
	for j, v := range sol.X {
		if math.Abs(v-math.Round(v)) > 1e-6 {
			t.Fatalf("x[%d]=%v not integral", j, v)
		}
	}
}

func TestRandomKnapsacksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		var tot float64
		for j := 0; j < n; j++ {
			values[j] = float64(1 + rng.Intn(20))
			weights[j] = float64(1 + rng.Intn(10))
			tot += weights[j]
		}
		cap := math.Floor(tot * (0.2 + 0.6*rng.Float64()))
		prob := mkKnapsack(values, weights, cap)
		sol := Solve(prob, Options{})
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status=%v", trial, sol.Status)
		}
		want := bruteKnapsack(values, weights, cap)
		if math.Abs(-sol.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj=%v want %v", trial, -sol.Obj, want)
		}
	}
}

func TestIntegerEquality(t *testing.T) {
	// min x+y s.t. 2x+3y = 7, x,y integer >= 0 -> x=2,y=1.
	p := &lp.Problem{}
	x := p.AddVar(0, lp.Inf, 1, "x")
	y := p.AddVar(0, lp.Inf, 1, "y")
	p.AddRow(lp.EQ, 7, []int32{int32(x), int32(y)}, []float64{2, 3})
	sol := Solve(&Problem{LP: p, Integer: []bool{true, true}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-1) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3 with x integer: LP feasible, MILP infeasible.
	p := &lp.Problem{}
	x := p.AddVar(0, 10, 1, "x")
	p.AddRow(lp.EQ, 3, []int32{int32(x)}, []float64{2})
	sol := Solve(&Problem{LP: p, Integer: []bool{true}}, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status=%v", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, x continuous in [0, 2.5], y binary, x + y <= 3.
	// Optimum: y=1, x=2 -> obj -12.
	p := &lp.Problem{}
	x := p.AddVar(0, 2.5, -1, "x")
	y := p.AddVar(0, 1, -10, "y")
	p.AddRow(lp.LE, 3, []int32{int32(x), int32(y)}, []float64{1, 1})
	sol := Solve(&Problem{LP: p, Integer: []bool{false, true}}, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj+12) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
}

func TestIncumbentSeedingPrunes(t *testing.T) {
	values := []float64{10, 13, 7, 8}
	weights := []float64{3, 4, 2, 3}
	prob := mkKnapsack(values, weights, 7)
	// Seed with a good-but-suboptimal point (items 1+3: value 21, weight 7);
	// the search must still find the optimum (items 0+1: value 23).
	seed := []float64{0, 1, 0, 1}
	sol := Solve(prob, Options{Incumbent: seed})
	if sol.Status != StatusOptimal || math.Abs(-sol.Obj-23) > 1e-6 {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestHeuristicImprovesIncumbent(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 5, 9, 4}
	weights := []float64{3, 4, 2, 3, 1, 2, 4, 2}
	prob := mkKnapsack(values, weights, 9)
	calls := 0
	// Greedy repair: round down, then greedily add items that fit.
	heur := func(x []float64) ([]float64, float64, bool) {
		calls++
		out := make([]float64, len(x))
		var w float64
		for j := range x {
			if x[j] > 0.999 {
				out[j] = 1
				w += weights[j]
			}
		}
		if w > 9 {
			return nil, 0, false
		}
		for j := range x {
			if out[j] == 0 && w+weights[j] <= 9 {
				out[j] = 1
				w += weights[j]
			}
		}
		return out, prob.LP.Objective(out), true
	}
	sol := Solve(prob, Options{Heuristic: heur})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if calls == 0 {
		t.Fatal("heuristic never invoked")
	}
	want := bruteKnapsack(values, weights, 9)
	if math.Abs(-sol.Obj-want) > 1e-6 {
		t.Fatalf("obj=%v want %v", -sol.Obj, want)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 18
	values := make([]float64, n)
	weights := make([]float64, n)
	var tot float64
	for j := 0; j < n; j++ {
		values[j] = 10 + rng.Float64()
		weights[j] = 5 + rng.Float64()
		tot += weights[j]
	}
	prob := mkKnapsack(values, weights, tot/2)
	sol := Solve(prob, Options{MaxNodes: 3})
	if sol.Status == StatusOptimal && sol.Nodes > 3 {
		t.Fatalf("node limit ignored: %d nodes", sol.Nodes)
	}
	// With a limit we expect at least a bound.
	if math.IsInf(sol.Bound, -1) {
		t.Fatal("no bound produced")
	}
}

func TestRootLPObjReported(t *testing.T) {
	prob := mkKnapsack([]float64{5, 4}, []float64{3, 2}, 4)
	sol := Solve(prob, Options{})
	if math.IsNaN(sol.RootLPObj) {
		t.Fatal("RootLPObj not recorded")
	}
	// Root LP (fractional knapsack) must be at least as good as the MILP.
	if sol.RootLPObj > sol.Obj+1e-9 {
		t.Fatalf("root LP %v worse than MILP %v", sol.RootLPObj, sol.Obj)
	}
}

func TestOnImproveCallbackFires(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 5}
	weights := []float64{3, 4, 2, 3, 1, 2}
	prob := mkKnapsack(values, weights, 7)
	improvements := 0
	lastObj := math.Inf(1)
	sol := Solve(prob, Options{OnImprove: func(obj, bound float64) {
		improvements++
		if obj >= lastObj {
			t.Errorf("OnImprove objective %v did not improve on %v", obj, lastObj)
		}
		if bound > obj+1e-9 {
			t.Errorf("OnImprove reported bound %v above incumbent %v", bound, obj)
		}
		lastObj = obj
	}})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if improvements == 0 {
		t.Fatal("OnImprove never fired")
	}
	if math.Abs(lastObj-sol.Obj) > 1e-9 {
		t.Fatalf("last OnImprove objective %v != final incumbent %v", lastObj, sol.Obj)
	}
}

// TestOnBoundMonotone: bounds reported through OnBound must be monotone
// non-decreasing and never exceed the final proven bound — including under
// parallel workers, where deliveries are serialized so a preempted worker
// cannot publish a stale (lower) bound after a newer one.
func TestOnBoundMonotone(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n := 18
			values := make([]float64, n)
			weights := make([]float64, n)
			var tot float64
			for i := range values {
				values[i] = 1 + 10*rng.Float64()
				weights[i] = 1 + 10*rng.Float64()
				tot += weights[i]
			}
			prob := mkKnapsack(values, weights, tot/3)
			var mu sync.Mutex
			var bounds []float64
			sol := Solve(prob, Options{Threads: threads, OnBound: func(b float64) {
				mu.Lock()
				bounds = append(bounds, b)
				mu.Unlock()
			}})
			if sol.Status != StatusOptimal {
				t.Fatalf("status=%v", sol.Status)
			}
			if len(bounds) == 0 {
				t.Fatal("OnBound never fired")
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1]-1e-9 {
					t.Fatalf("bound regressed: %v after %v", bounds[i], bounds[i-1])
				}
			}
			if last := bounds[len(bounds)-1]; last > sol.Bound+1e-9 {
				t.Fatalf("reported bound %v exceeds final proven bound %v", last, sol.Bound)
			}
		})
	}
}

func TestTimeLimitHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 24
	values := make([]float64, n)
	weights := make([]float64, n)
	var tot float64
	for j := 0; j < n; j++ {
		values[j] = 100 + rng.Float64()
		weights[j] = 10 + rng.Float64()
		tot += weights[j]
	}
	prob := mkKnapsack(values, weights, tot/2)
	start := time.Now()
	sol := Solve(prob, Options{TimeLimit: 150 * time.Millisecond})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("time limit ignored: ran %v", el)
	}
	if math.IsInf(sol.Bound, -1) {
		t.Fatal("no bound despite running the root")
	}
}

// TestParallelMatchesSerialObjective: with Threads > 1 the search explores
// nodes in a different order but must prove the same optimal objective. The
// schedule (X) may legitimately differ among ties; the objective may not.
// This test also runs under -race in CI, covering the shared-heap and
// incumbent synchronization.
func TestParallelMatchesSerialObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		var tot float64
		for j := 0; j < n; j++ {
			values[j] = float64(1 + rng.Intn(30))
			weights[j] = float64(1 + rng.Intn(12))
			tot += weights[j]
		}
		cap := math.Floor(tot * (0.25 + 0.5*rng.Float64()))
		prob := mkKnapsack(values, weights, cap)
		want := bruteKnapsack(values, weights, cap)
		for _, threads := range []int{1, 2, 4} {
			sol := Solve(prob, Options{Threads: threads})
			if sol.Status != StatusOptimal {
				t.Fatalf("trial %d threads=%d: status=%v", trial, threads, sol.Status)
			}
			if math.Abs(-sol.Obj-want) > 1e-6 {
				t.Fatalf("trial %d threads=%d: obj=%v want %v", trial, threads, -sol.Obj, want)
			}
			if math.Abs(sol.Bound-sol.Obj) > 1e-6*(1+math.Abs(sol.Obj)) {
				t.Fatalf("trial %d threads=%d: bound %v != obj %v at optimality", trial, threads, sol.Bound, sol.Obj)
			}
		}
	}
}

// TestIterLimitKeepsBoundValid: when node LPs die on iteration limits the
// abandoned subtrees' bounds must fold into Solution.Bound — it must never
// exceed the true optimum (previously those bounds were silently discarded
// and the "proven" bound could overshoot).
func TestIterLimitKeepsBoundValid(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	starved := 0
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(6)
		values := make([]float64, n)
		weights := make([]float64, n)
		var tot float64
		for j := 0; j < n; j++ {
			values[j] = float64(5 + rng.Intn(25))
			weights[j] = float64(2 + rng.Intn(9))
			tot += weights[j]
		}
		cap := math.Floor(tot * 0.4)
		prob := mkKnapsack(values, weights, cap)
		opt := -bruteKnapsack(values, weights, cap) // minimization objective
		// Starve the node LPs: enough iterations for some nodes, not all.
		iters := 5 + rng.Intn(25)
		sol := Solve(prob, Options{LPOpts: lp.Options{MaxIters: iters}, MaxNodes: 500})
		if sol.Bound > opt+1e-6 {
			t.Fatalf("trial %d (MaxIters=%d): claimed bound %v above true optimum %v",
				trial, iters, sol.Bound, opt)
		}
		if sol.Status == StatusOptimal && math.Abs(sol.Obj-opt) > 1e-6 {
			t.Fatalf("trial %d: claimed optimal %v but optimum is %v", trial, sol.Obj, opt)
		}
		if sol.Status == StatusLimit || sol.Status == StatusFeasible {
			starved++
		}
	}
	if starved == 0 {
		t.Skip("no trial was iteration-starved; limits too loose to exercise the path")
	}
}

// TestWarmStartReducesNodeLPWork: on a branchy knapsack, per-node simplex
// work with basis inheritance must be well below the cold-start baseline,
// and the warm-start hit rate must be high.
func TestWarmStartReducesNodeLPWork(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 20
	values := make([]float64, n)
	weights := make([]float64, n)
	var tot float64
	for j := 0; j < n; j++ {
		values[j] = 50 + rng.Float64()*10
		weights[j] = 5 + rng.Float64()
		tot += weights[j]
	}
	prob := mkKnapsack(values, weights, tot/2)
	warm := Solve(prob, Options{})
	cold := Solve(prob, Options{ColdStart: true})
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-6 {
		t.Fatalf("warm obj %v != cold %v", warm.Obj, cold.Obj)
	}
	if warm.Nodes <= 1 || cold.Nodes <= 1 {
		t.Skipf("search closed at the root (warm %d / cold %d nodes); nothing to compare", warm.Nodes, cold.Nodes)
	}
	hits, misses := warm.Counters.WarmHits, warm.Counters.WarmMisses
	if hits == 0 {
		t.Fatal("no node LP accepted an inherited basis")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("warm-start hit rate %.2f below 0.5 (%d hits, %d misses)", rate, hits, misses)
	}
	warmPer := float64(warm.Counters.SimplexIters) / float64(warm.Nodes)
	coldPer := float64(cold.Counters.SimplexIters) / float64(cold.Nodes)
	if warmPer >= coldPer {
		t.Fatalf("warm starts did not reduce per-node simplex work: %.1f vs cold %.1f", warmPer, coldPer)
	}
	if cold.Counters.WarmHits != 0 || cold.Counters.DualIters != 0 {
		t.Fatalf("cold solve reported warm activity: %+v", cold.Counters)
	}
}

func TestGapTerminationReportsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 16
	values := make([]float64, n)
	weights := make([]float64, n)
	var tot float64
	for j := 0; j < n; j++ {
		values[j] = 50 + rng.Float64()*10
		weights[j] = 5 + rng.Float64()
		tot += weights[j]
	}
	prob := mkKnapsack(values, weights, tot/3)
	sol := Solve(prob, Options{RelGap: 0.25})
	if sol.Status != StatusOptimal && sol.Status != StatusFeasible {
		t.Fatalf("status=%v", sol.Status)
	}
	if sol.Status == StatusOptimal && !(sol.Gap <= 0.25+1e-9) {
		t.Fatalf("claimed optimal at gap %v > 0.25", sol.Gap)
	}
}

// TestAcceptRefusesRoundedPoint: the LP optimum of this knapsack fills the
// capacity with the heavy item at 1 − 5e-7, inside IntTol. Rounded, that
// point overruns the capacity by one unit, and beats the seeded optimum.
// Accept refuses it: the seed stays the incumbent, and the refused
// subtree's bound stays in the bound, so the seed is not claimed optimal.
func TestAcceptRefusesRoundedPoint(t *testing.T) {
	values, weights, capacity := []float64{2, 1}, []float64{2e6, 1}, 2e6
	fits := func(x []float64) bool { return x[0]*weights[0]+x[1]*weights[1] <= capacity }
	seed := []float64{1, 0} // the true optimum
	// Without the hook the rounded point is taken: the case under test.
	if sol := Solve(mkKnapsack(values, weights, capacity), Options{Incumbent: seed}); sol.Status != StatusOptimal || fits(sol.X) {
		t.Fatalf("without Accept: status %v x %v, want the rounded point that overruns, stamped optimal", sol.Status, sol.X)
	}
	sol := Solve(mkKnapsack(values, weights, capacity), Options{Incumbent: seed, Accept: fits})
	if sol.Status != StatusFeasible || !fits(sol.X) || -sol.Obj != bruteKnapsack(values, weights, capacity) {
		t.Fatalf("with Accept: status %v x %v obj %v, want the seed, unproven", sol.Status, sol.X, -sol.Obj)
	}
	if -sol.Bound <= -sol.Obj {
		t.Fatalf("with Accept: bound %v, want the refused subtree's, above the seed's %v", -sol.Bound, -sol.Obj)
	}
}
