package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/service/api"
)

// Two graphs that used to be answered 200 with an empty body, from the
// solve and from the cache alike: the costs of the first sum to +Inf, and
// the second's overhead was 0/0. encoding/json refuses both values after
// the status line has gone out.
const (
	infCostGraph  = `{"nodes":[{"name":"a","cost":1e308,"mem":10},{"name":"b","cost":1e308,"mem":10},{"name":"gb","cost":1e308,"mem":10,"backward":true},{"name":"ga","cost":1e308,"mem":10,"backward":true}],"edges":[[0,1],[1,2],[0,3],[2,3]]}`
	zeroCostGraph = `{"nodes":[{"name":"a","cost":0,"mem":10},{"name":"b","cost":0,"mem":10},{"name":"gb","cost":0,"mem":10,"backward":true},{"name":"ga","cost":0,"mem":10,"backward":true}],"edges":[[0,1],[1,2],[0,3],[2,3]]}`
)

func graphBody(budget int64, graphJSON string) []byte {
	return []byte(fmt.Sprintf(`{"budget":%d,"graph":%s}`, budget, graphJSON))
}

// serve runs one request through the handler and returns the recorded answer.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkGraphAnswer requires a 4xx, or a 200 whose body decodes and whose
// plan simulates on the request's graph within its budget, at the peak the
// answer reports. It returns the decoded answer of a 200.
func checkGraphAnswer(t *testing.T, body []byte, rec *httptest.ResponseRecorder) *api.SolveResponse {
	t.Helper()
	if rec.Code >= 400 && rec.Code < 500 {
		return nil
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("200 with a body that does not decode (%v): %q", err, rec.Body.String())
	}
	var req api.SolveRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		t.Fatalf("200 for a body the server cannot decode: %v", err)
	}
	g, err := req.Graph.Build()
	if err != nil {
		t.Fatalf("200 for a graph that does not build: %v", err)
	}
	plan, err := schedule.ReadPlanJSON(bytes.NewReader(resp.Plan))
	if err != nil {
		t.Fatalf("200 with a plan that does not decode: %v", err)
	}
	sim, err := schedule.Simulate(g, plan, req.Graph.Overhead)
	if err != nil {
		t.Fatalf("200 with a plan that does not simulate: %v", err)
	}
	if sim.PeakBytes > req.Budget || sim.PeakBytes != resp.PeakBytes {
		t.Fatalf("plan peaks at %d, answer reports %d, budget %d", sim.PeakBytes, resp.PeakBytes, req.Budget)
	}
	return &resp
}

// A graph whose costs sum past the float64 range is refused with a 400 by
// both request kinds, before any answer is cached.
func TestGraphCostsRefused(t *testing.T) {
	_, ts := testServer(t)
	h := ts.Config.Handler
	body := graphBody(40, infCostGraph)
	for i := 0; i < 2; i++ {
		if rec := serve(h, "/v1/solve", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("solve %d: HTTP %d %q", i, rec.Code, rec.Body.String())
		}
	}
	sweep := []byte(fmt.Sprintf(`{"budgets":[40],"graph":%s}`, infCostGraph))
	if rec := serve(h, "/v1/sweep", sweep); rec.Code != http.StatusBadRequest {
		t.Fatalf("sweep: HTTP %d %q", rec.Code, rec.Body.String())
	}
}

// A graph whose costs are all 0 is served with overhead 1 and a plan that
// simulates, from the solve and from the cache.
func TestGraphZeroCosts(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(40, zeroCostGraph)
	for i, cached := range []bool{false, true} {
		resp := checkGraphAnswer(t, body, serve(ts.Config.Handler, "/v1/solve", body))
		if resp == nil || resp.Cached != cached || resp.Overhead != 1 {
			t.Fatalf("request %d: %+v, want cached=%v overhead 1", i, resp, cached)
		}
	}
}

// FuzzSolveGraphRequest posts fuzzed graphs to /v1/solve at a budget of
// 2^53 bytes. Every workload the service accepts fits its ideal schedule
// there, so each is presolved in microseconds. Every answer is a 4xx, or a
// 200 whose plan simulates on the request's graph within the budget.
func FuzzSolveGraphRequest(f *testing.F) {
	f.Add([]byte(infCostGraph))
	f.Add([]byte(zeroCostGraph))
	valid, err := json.Marshal(trainingSpec(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	srv, err := New(Config{
		Workers: 1, QueueCap: 4, CacheCap: 32, MaxGraphNodes: 64,
		DefaultTimeLimit: 5 * time.Second,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, graphJSON []byte) {
		body := graphBody(1<<53, string(graphJSON))
		checkGraphAnswer(t, body, serve(h, "/v1/solve", body))
	})
}
