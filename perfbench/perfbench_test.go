package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/telemetry"
)

// One seed always yields the same request stream; another seed another.
func TestRequestStreamRepeats(t *testing.T) {
	for _, spec := range []serveSpec{hotSpec(), coldSpec()} {
		nkeys := len(spec.models) * spec.budgets
		draw := func(seed int64, conn int) []request {
			g := newRequestGen(seed, conn, nkeys, spec.zipf)
			out := make([]request, 2000)
			for i := range out {
				out[i] = g.next()
			}
			return out
		}
		if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
			t.Errorf("%s: seed 7 gave two different streams", spec.name)
		}
		if reflect.DeepEqual(draw(7, 0), draw(8, 0)) || reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
			t.Errorf("%s: different seeds or clients gave the same stream", spec.name)
		}
		kinds := map[opKind]int{}
		for _, r := range draw(7, 0) {
			kinds[r.kind]++
			if r.key < 0 || r.key >= nkeys {
				t.Fatalf("%s: key %d outside the key space", spec.name, r.key)
			}
		}
		if kinds[opSolve] < 1300 || kinds[opStream] < 200 || kinds[opSweep] < 200 {
			t.Errorf("%s: mix %v is not about 70/15/15", spec.name, kinds)
		}
	}
}

// The grid is fixed and every instance has a recorded seed outcome.
func TestZooInstancesHaveSeedOutcomes(t *testing.T) {
	insts := zooInstances()
	if len(insts) != 30 || len(seedOutcomes) != len(insts) {
		t.Fatalf("%d instances and %d seed outcomes, want 30 each", len(insts), len(seedOutcomes))
	}
	if !reflect.DeepEqual(insts, zooInstances()) {
		t.Fatal("the instance list changed between calls")
	}
	seen := map[instance]bool{}
	for _, s := range seedOutcomes {
		in := instance{s.model, s.frac, s.method}
		if seen[in] {
			t.Errorf("%s recorded twice", in)
		}
		seen[in] = true
	}
	for _, in := range insts {
		if !seen[in] {
			t.Errorf("%s has no seed outcome", in)
		}
	}
}

// BENCHMARK.json names exactly the metrics the program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// The plan check rejects a plan over budget and a misreported peak.
func TestCheckPlanRejects(t *testing.T) {
	wl, err := checkmate.Load("mobilenet", checkmate.Options{Batch: zooBatch, CoarseSegments: zooSegments})
	if err != nil {
		t.Fatal(err)
	}
	budget := budgetsAt(wl, []float64{0.5})[0]
	sched, err := checkmate.Solve(context.Background(), checkmate.Request{
		Workload: wl, Method: checkmate.Interval, Budget: budget, TimeLimit: zooLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(wl, sched.Plan, budget, sched.PeakBytes); err != nil {
		t.Fatalf("a valid plan failed the check: %v", err)
	}
	if checkPlan(wl, sched.Plan, sched.PeakBytes-1, sched.PeakBytes) == nil {
		t.Error("a plan over its budget passed the check")
	}
	if checkPlan(wl, sched.Plan, budget, sched.PeakBytes-1) == nil {
		t.Error("a misreported peak passed the check")
	}
}

// Self times rebuilt from the Chrome export equal the in-process ones.
func TestSummarizeChromeMatchesTrace(t *testing.T) {
	tr := telemetry.NewTrace()
	ctx := telemetry.WithTrace(context.Background(), tr)
	rctx, root := telemetry.StartSpan(ctx, "solve")
	for i := 0; i < 3; i++ {
		cctx, child := telemetry.StartSpan(rctx, "interval_search")
		child.SetAttr("nodes", 4)
		_, leaf := telemetry.StartSpan(cctx, "plan")
		time.Sleep(time.Millisecond)
		leaf.End()
		time.Sleep(time.Millisecond)
		child.End()
	}
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := summarizeChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := summarizeTrace(tr)
	for name, w := range want.self {
		// The export rounds to whole nanoseconds per field.
		if math.Abs(got.self[name]-w) > 1e-3 {
			t.Errorf("self[%s] = %.6f ms from Chrome JSON, %.6f ms in process", name, got.self[name], w)
		}
	}
	if got.attr["interval_search.nodes"] != 12 || got.count["plan"] != 3 {
		t.Errorf("attributes %v, counts %v", got.attr, got.count)
	}
}

// Solver iteration and node counts of the instances that finish inside their
// limit repeat exactly, so later changes can claim them. A solve that runs
// into its limit on the host running the test (a slow one, or under the race
// detector) cuts its last LP short, so such instances are reported and not
// compared.
func TestZooCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the grid twice")
	}
	z, _, err := loadZoo()
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		iters, root, probe, eps int64
		nodes                   int
		cost                    float64
	}
	// solve reports the counts and whether the solve finished well inside
	// its limit.
	solve := func(in instance) (counts, bool) {
		start := time.Now()
		s, err := checkmate.Solve(context.Background(), checkmate.Request{
			Workload: z.wls[in.model], Method: in.method, Budget: z.budgets[in], TimeLimit: zooLimit,
		})
		if err != nil {
			return counts{}, false
		}
		c := counts{s.Solver.SimplexIters, s.Solver.RootIters, s.Solver.ProbeIters, s.Solver.EpsSolves, s.Nodes, s.Cost}
		return c, time.Since(start) < zooLimit*4/5
	}
	compared := 0
	for _, so := range seedOutcomes {
		if so.atLimit {
			continue
		}
		in := instance{so.model, so.frac, so.method}
		a, okA := solve(in)
		b, okB := solve(in)
		if !okA || !okB {
			t.Logf("%s did not finish well inside its %v limit here; not compared", in, zooLimit)
			continue
		}
		compared++
		if a != b {
			t.Errorf("%s: counts %+v then %+v", in, a, b)
		}
	}
	if compared == 0 {
		t.Skip("no instance finished well inside its limit on this host")
	}
}

// Two short serve-cold runs of the same request streams agree on solves and
// store writes: every distinct key is solved once and written once, whatever
// the interleaving of the two clients.
func TestServeColdCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-cold loop twice")
	}
	spec := coldSpec()
	run := func() (solves, puts int64) {
		ks, _, err := buildKeySpace(spec)
		if err != nil {
			t.Fatal(err)
		}
		env, err := startServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		chk := newPlanChecker(ks)
		out := make([]serveStats, serveConns)
		var wg sync.WaitGroup
		start := time.Now()
		for c := range out {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gen := newRequestGen(3, c, ks.len(), spec.zipf)
				for i := 0; i < 400; i++ {
					doRequest(context.Background(), env, ks, chk, gen.next(), start, time.Minute, &out[c])
				}
			}(c)
		}
		wg.Wait()
		for _, o := range out {
			if len(o.failures) > 0 || len(o.violations) > 0 {
				t.Fatalf("failures %v, violations %v", o.failures, o.violations)
			}
		}
		st, err := env.c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Solves, st.Store.Puts
	}
	s1, p1 := run()
	s2, p2 := run()
	t.Logf("run 1: %d solves, %d puts; run 2: %d solves, %d puts", s1, p1, s2, p2)
	if s1 == 0 || s1 != p1 || s2 != p2 || abs(s1-s2) > 2 {
		t.Errorf("run 1: %d solves, %d puts; run 2: %d solves, %d puts", s1, p1, s2, p2)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
