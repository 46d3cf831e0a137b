package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/faultinject"
	"repro/internal/schedule"
	"repro/internal/service/api"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return testServerCfg(t, Config{Workers: 2, QueueCap: 16, CacheCap: 32, DefaultTimeLimit: 20 * time.Second})
}

func testServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// holdFirstNode arms the solver-worker hook so that the next
// branch-and-bound node expansion sleeps for d before it runs. A test that
// acts on an in-flight solve gets a solve that outlives that point by d,
// however fast the solver is. Call the returned func to disarm.
func holdFirstNode(d time.Duration) (restore func()) {
	return faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.MILPWorker: {Latency: d, Count: 1},
	}))
}

// chainSpec builds a linear training DAG of n unit-cost unit-memory nodes.
func chainSpec(n int) *api.GraphSpec {
	s := &api.GraphSpec{}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, api.NodeSpec{Name: fmt.Sprintf("op%d", i), Cost: 1, Mem: 1})
		if i > 0 {
			s.Edges = append(s.Edges, [2]int{i - 1, i})
		}
	}
	return s
}

// trainingSpec builds a training-shaped DAG of 2n unit-cost unit-memory
// nodes: a forward chain and its backward mirror, where each gradient
// consumes its forward twin and the previous gradient. Its ideal peak is n+1
// against a MinBudget of 3, so the budgets between them need a solver. On
// chainSpec every feasible budget fits the ideal schedule, and Solve serves
// it without one.
func trainingSpec(n int) *api.GraphSpec {
	s := &api.GraphSpec{}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, api.NodeSpec{Name: fmt.Sprintf("f%d", i), Cost: 1, Mem: 1})
		if i > 0 {
			s.Edges = append(s.Edges, [2]int{i - 1, i})
		}
	}
	for i := n - 1; i >= 0; i-- {
		grad := len(s.Nodes)
		s.Nodes = append(s.Nodes, api.NodeSpec{Name: fmt.Sprintf("grad%d", i), Cost: 1, Mem: 1, Backward: true})
		s.Edges = append(s.Edges, [2]int{i, grad})
		if i < n-1 {
			s.Edges = append(s.Edges, [2]int{grad - 1, grad})
		}
	}
	return s
}

func postSolve(t *testing.T, ts *httptest.Server, req any) (*api.SolveResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, &http.Response{StatusCode: resp.StatusCode, Status: e.Error}
	}
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, nil
}

func TestSolveCacheHit(t *testing.T) {
	srv, ts := testServer(t)
	req := api.SolveRequest{Graph: chainSpec(10), Budget: 6}

	first, errResp := postSolve(t, ts, req)
	if errResp != nil {
		t.Fatalf("first solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if first.Cached {
		t.Fatalf("first solve reported cached")
	}
	st := srv.Stats()
	if st.Solves != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("after first solve: solves=%d misses=%d hits=%d", st.Solves, st.CacheMisses, st.CacheHits)
	}

	second, errResp := postSolve(t, ts, req)
	if errResp != nil {
		t.Fatalf("second solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !second.Cached {
		t.Fatalf("second identical solve was not served from the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints differ for identical requests: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if !bytes.Equal(second.Plan, first.Plan) {
		t.Fatalf("cached plan differs from the solved plan")
	}
	st = srv.Stats()
	// Solves must NOT have incremented: the cache-hit path skips the solver.
	if st.Solves != 1 {
		t.Fatalf("solver ran again on a cache hit: solves=%d", st.Solves)
	}
	if st.CacheHits != 1 {
		t.Fatalf("cache hit counter = %d, want 1", st.CacheHits)
	}
}

func TestFingerprintKeysDistinguishWorkloads(t *testing.T) {
	srv, ts := testServer(t)

	base, _ := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})

	perturbed := chainSpec(10)
	perturbed.Nodes[4].Cost = 1.0001
	other, _ := postSolve(t, ts, api.SolveRequest{Graph: perturbed, Budget: 6})
	if other.Fingerprint == base.Fingerprint {
		t.Fatalf("perturbed cost produced the same fingerprint %s", base.Fingerprint)
	}
	if other.Cached {
		t.Fatalf("perturbed graph hit the cache")
	}

	diffBudget, _ := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 7})
	if diffBudget.Fingerprint == base.Fingerprint {
		t.Fatalf("different budget produced the same fingerprint")
	}

	apx, _ := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: string(checkmate.Approx)})
	if apx.Fingerprint == base.Fingerprint {
		t.Fatalf("approx solver shares the optimal solver's cache key")
	}
	if st := srv.Stats(); st.Solves != 4 {
		t.Fatalf("solves = %d, want 4 distinct", st.Solves)
	}

	again, _ := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if again.Fingerprint != base.Fingerprint || !again.Cached {
		t.Fatalf("stable re-request missed the cache (fp %s vs %s, cached=%v)",
			again.Fingerprint, base.Fingerprint, again.Cached)
	}
}

func TestConcurrentSolves(t *testing.T) {
	srv, ts := testServer(t)
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]*api.SolveResponse, goroutines)
	failures := make([]string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half identical requests (dedup/cache candidates), half distinct.
			budget := int64(6)
			if i%2 == 1 {
				budget = int64(6 + i)
			}
			body, _ := json.Marshal(api.SolveRequest{Graph: chainSpec(10), Budget: budget})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				failures[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failures[i] = resp.Status
				return
			}
			var out api.SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				failures[i] = err.Error()
				return
			}
			results[i] = &out
		}(i)
	}
	wg.Wait()
	var fp string
	for i := 0; i < goroutines; i++ {
		if failures[i] != "" {
			t.Fatalf("request %d failed: %s", i, failures[i])
		}
		if i%2 == 0 {
			if fp == "" {
				fp = results[i].Fingerprint
			} else if results[i].Fingerprint != fp {
				t.Fatalf("identical concurrent requests returned different fingerprints")
			}
		}
	}
	st := srv.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("pool did not drain: inflight=%d queue=%d", st.InFlight, st.QueueDepth)
	}
	// The 4 identical requests must have cost at most 4 solver runs less
	// dedup/cache savings; distinct ones cost one each. Upper bound: one per
	// distinct key (5 keys total).
	if st.Solves > 5 {
		t.Fatalf("solves = %d for 5 distinct keys", st.Solves)
	}
}

func TestPlanJSONRoundTripThroughHTTP(t *testing.T) {
	_, ts := testServer(t)
	spec := chainSpec(12)
	const budget = 6
	resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: spec, Budget: budget})
	if errResp != nil {
		t.Fatalf("HTTP %d %s", errResp.StatusCode, errResp.Status)
	}

	plan, err := schedule.ReadPlanJSON(bytes.NewReader(resp.Plan))
	if err != nil {
		t.Fatalf("decoding returned plan: %v", err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := schedule.Simulate(g, plan, spec.Overhead)
	if err != nil {
		t.Fatalf("simulating returned plan: %v", err)
	}
	if sim.PeakBytes != resp.PeakBytes {
		t.Fatalf("simulated peak %d != reported peak %d", sim.PeakBytes, resp.PeakBytes)
	}
	if sim.PeakBytes > budget {
		t.Fatalf("returned plan exceeds the budget: %d > %d", sim.PeakBytes, budget)
	}
}

func TestSweep(t *testing.T) {
	srv, ts := testServer(t)
	req := api.SweepRequest{Graph: chainSpec(10), Budgets: []int64{1, 6, 10}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var out api.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(out.Points))
	}
	if out.Points[0].Feasible || out.Points[0].Error == "" {
		t.Fatalf("budget 1 should be infeasible, got %+v", out.Points[0])
	}
	for _, pt := range out.Points[1:] {
		if !pt.Feasible {
			t.Fatalf("budget %d unexpectedly infeasible: %s", pt.Budget, pt.Error)
		}
		if pt.Overhead < 1-1e-9 {
			t.Fatalf("budget %d overhead %.4f < 1 (impossible)", pt.Budget, pt.Overhead)
		}
	}
	if out.MinBudget <= 0 || out.CheckpointAllPeak < out.MinBudget {
		t.Fatalf("bad envelope: min=%d peak=%d", out.MinBudget, out.CheckpointAllPeak)
	}

	// A follow-up /v1/solve at a swept budget must hit the sweep's cache.
	single, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if errResp != nil {
		t.Fatalf("HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !single.Cached {
		t.Fatalf("solve after sweep missed the cache")
	}
	if st := srv.Stats(); st.CacheHits == 0 {
		t.Fatalf("no cache hits recorded after sweep + solve")
	}
}

// TestLargeSweepDoesNotOverflowQueue drives a sweep far larger than the
// pool's queue: submissions must be throttled, not fail with queue-full.
func TestLargeSweepDoesNotOverflowQueue(t *testing.T) {
	_, ts := testServerCfg(t, Config{Workers: 2, QueueCap: 4, CacheCap: 64, DefaultTimeLimit: 20 * time.Second})
	budgets := make([]int64, 40)
	for i := range budgets {
		budgets[i] = int64(5 + i%8) // mostly feasible, heavy key reuse
	}
	body, _ := json.Marshal(api.SweepRequest{Graph: chainSpec(10), Budgets: budgets})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var out api.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, pt := range out.Points {
		if strings.Contains(pt.Error, "queue is full") {
			t.Fatalf("budget %d hit queue-full despite throttling: %s", pt.Budget, pt.Error)
		}
		if !pt.Feasible {
			t.Fatalf("budget %d failed: %s", pt.Budget, pt.Error)
		}
	}
}

func TestSweepRejectsBadBudgetBeforeSolving(t *testing.T) {
	srv, ts := testServer(t)
	body, _ := json.Marshal(api.SweepRequest{Graph: chainSpec(10), Budgets: []int64{8, 0}})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	if st := srv.Stats(); st.Solves != 0 || st.CacheMisses != 0 {
		t.Fatalf("rejected sweep still did solver work: %+v", st)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		req  any // an api.SolveRequest, or a raw body for fields it cannot carry
		code int
	}{
		{"no workload", api.SolveRequest{Budget: 6}, http.StatusBadRequest},
		{"both workloads", api.SolveRequest{Model: "vgg16", Graph: chainSpec(4), Budget: 6}, http.StatusBadRequest},
		{"bad solver", map[string]any{"graph": chainSpec(4), "budget": 6, "solver": "approx"}, http.StatusBadRequest},
		{"zero budget", api.SolveRequest{Graph: chainSpec(4)}, http.StatusBadRequest},
		{"unknown model", api.SolveRequest{Model: "nope", Budget: 6}, http.StatusBadRequest},
		{"out-of-range self edge", api.SolveRequest{Graph: &api.GraphSpec{
			Nodes: []api.NodeSpec{{Cost: 1, Mem: 1}}, Edges: [][2]int{{7, 7}},
		}, Budget: 6}, http.StatusBadRequest},
		{"infeasible budget", api.SolveRequest{Graph: chainSpec(10), Budget: 1}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errResp := postSolve(t, ts, tc.req)
			if errResp == nil {
				t.Fatalf("request succeeded, want HTTP %d", tc.code)
			}
			if errResp.StatusCode != tc.code {
				t.Fatalf("HTTP %d (%s), want %d", errResp.StatusCode, errResp.Status, tc.code)
			}
		})
	}
}

func TestModelsHealthzStats(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models api.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models.Models) == 0 {
		t.Fatalf("no models listed")
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workers != 2 || st.CacheCap != 32 {
		t.Fatalf("stats don't reflect config: %+v", st)
	}
	if st.Requests["models"] != 1 || st.Requests["healthz"] != 1 {
		t.Fatalf("request counters wrong: %v", st.Requests)
	}
}

// TestSolveCancellation cancels an in-flight MILP solve via the request
// context and verifies the worker is reclaimed (the acceptance criterion of
// the service issue).
func TestSolveCancellation(t *testing.T) {
	// Hold the solve at its root expansion so it is still running when the
	// request is cancelled.
	defer holdFirstNode(200 * time.Millisecond)()
	srv, _ := testServer(t)
	wl, err := buildTestWorkload(srv, trainingSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.solveParamsFrom(string(checkmate.Optimal), 8, 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := srv.solveOne(ctx, wl, p, false)
		errc <- err
	}()
	// Wait until the solve occupies a worker, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("solveOne returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("cancelled solve did not return")
	}
	// The worker must come back: no leak.
	deadline = time.Now().Add(10 * time.Second)
	for srv.pool.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy %v after cancellation: leaked", 10*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.pool.cancelled.Load() != 1 {
		t.Fatalf("cancelled counter = %d, want 1", srv.pool.cancelled.Load())
	}
	// And the pool still solves fresh work.
	quick, err := buildTestWorkload(srv, chainSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	qp, _ := srv.solveParamsFrom(string(checkmate.Optimal), 6, 20_000, 0)
	if _, err := srv.solveOne(context.Background(), quick, qp, false); err != nil {
		t.Fatalf("pool unusable after cancellation: %v", err)
	}
}

func buildTestWorkload(s *Server, spec *api.GraphSpec) (*checkmate.Workload, error) {
	return s.buildWorkload(workloadSpec{graph: spec})
}

// TestSolverStatsAndThreads: a server configured with parallel
// branch-and-bound must solve correctly, and /v1/stats must expose the
// aggregated solver counters (simplex iterations, warm-start hit rate,
// node throughput) after an optimal solve.
func TestSolverStatsAndThreads(t *testing.T) {
	srv, ts := testServerCfg(t, Config{
		Workers: 2, QueueCap: 16, CacheCap: 32,
		DefaultTimeLimit: 20 * time.Second, SolveThreads: 2,
	})
	resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: trainingSpec(6), Budget: 6})
	if errResp != nil {
		t.Fatalf("solve failed: %d %s", errResp.StatusCode, errResp.Status)
	}
	if resp.Cached {
		t.Fatal("first solve reported cached")
	}
	st := srv.Stats()
	if st.Solver.Threads != 2 {
		t.Fatalf("stats threads = %d, want 2", st.Solver.Threads)
	}
	if st.Solver.SimplexIters == 0 {
		t.Fatal("no simplex iterations recorded after an optimal solve")
	}
	if st.Solver.Nodes == 0 {
		t.Fatal("no branch-and-bound nodes recorded")
	}
	if st.Solver.NodesPerSec <= 0 {
		t.Fatalf("nodes/sec %v not positive", st.Solver.NodesPerSec)
	}
	// Serial and parallel configs must agree on the optimal overhead.
	_, ts1 := testServerCfg(t, Config{Workers: 1, DefaultTimeLimit: 20 * time.Second})
	resp1, errResp1 := postSolve(t, ts1, api.SolveRequest{Graph: trainingSpec(6), Budget: 6})
	if errResp1 != nil {
		t.Fatalf("serial solve failed: %d %s", errResp1.StatusCode, errResp1.Status)
	}
	if d := resp.Overhead - resp1.Overhead; d > 1e-9 || d < -1e-9 {
		t.Fatalf("parallel overhead %v != serial %v", resp.Overhead, resp1.Overhead)
	}
}
