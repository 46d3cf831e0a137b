// Chaos suite: fault injection against the full service stack. The
// invariants under test are the robustness tentpole's acceptance criteria —
// with store I/O faults, solver-worker panics, and deadlines shorter than
// the optimal solve, the process stays up, every feasible request is
// answered (degraded at worst, never dropped), and every degradation is
// visible in /v1/stats and /metrics.
//
// The injector is process-global, so these tests must not run in parallel
// with each other (they don't call t.Parallel, and Go runs same-package
// tests sequentially by default).

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/faultinject"
	"repro/internal/service/api"
)

// trainingBudgets returns (min, ideal peak) for trainingSpec(n), so chaos
// requests can aim budgets at the range where a solver has to search.
func trainingBudgets(t *testing.T, n int) (int64, int64) {
	t.Helper()
	g, err := trainingSpec(n).Build()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := checkmate.FromGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wl.MinBudget(), wl.IdealPeak()
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestChaosStoreFaultsBreakerOpensAndHeals: with every disk write failing,
// solves still succeed (memory-only), the breaker opens and is visible in
// stats and metrics, and once the faults stop the healer re-closes it and
// writes reach the disk again.
func TestChaosStoreFaultsBreakerOpensAndHeals(t *testing.T) {
	inj := faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.StorePut: {Err: errors.New("injected disk failure")},
	})
	defer faultinject.Enable(inj)()

	cfg := persistentCfg(t.TempDir())
	cfg.StoreBreakerThreshold = 3
	cfg.StoreBreakerBackoff = 5 * time.Millisecond
	cfg.StoreBreakerMaxBackoff = 20 * time.Millisecond
	srv, ts := testServerCfg(t, cfg)

	// Distinct budgets defeat both cache and single-flight dedup, so every
	// request runs a solve and attempts a store write.
	for i := 0; i < 4; i++ {
		if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: int64(6 + i)}); errResp != nil {
			t.Fatalf("solve %d under store faults: HTTP %d %s", i, errResp.StatusCode, errResp.Status)
		}
	}
	var st api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Store == nil || st.Store.Breaker == nil {
		t.Fatal("stats carry no breaker block")
	}
	if !st.Store.Breaker.Open || st.Store.Breaker.Opens < 1 {
		t.Fatalf("breaker = %+v after 4 failed writes at threshold 3, want open", st.Store.Breaker)
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "checkmate_store_breaker_open"); v != 1 {
		t.Fatalf("checkmate_store_breaker_open = %v, want 1", v)
	}
	if v := metricValue(t, body, "checkmate_store_breaker_opens_total"); v < 1 {
		t.Fatalf("checkmate_store_breaker_opens_total = %v, want >= 1", v)
	}

	// Solves keep working while the disk is bypassed entirely.
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 10}); errResp != nil {
		t.Fatalf("solve with open breaker: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}

	// Heal the disk; the background probe re-closes the breaker.
	inj.Clear(faultinject.StorePut)
	waitCond(t, "the breaker to heal", func() bool {
		return srv.store.Stats().Breaker != nil && !srv.store.Stats().Breaker.Open
	})
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 11}); errResp != nil {
		t.Fatalf("post-heal solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	waitCond(t, "a post-heal write to land on disk", func() bool {
		return srv.store.Stats().Entries >= 1
	})
}

// TestChaosWorkerPanicDegradesToFallback: a panicking MILP worker under
// method=anytime costs quality, not availability — the request is answered
// by a fallback rung, stamped degraded, and the degradation shows up in
// /v1/stats and /metrics. The process survives throughout.
func TestChaosWorkerPanicDegradesToFallback(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.MILPWorker: {Panic: "chaos"},
	}))()
	_, ts := testServer(t)

	minB, peak := trainingBudgets(t, 6)
	resp, errResp := postSolve(t, ts, api.SolveRequest{
		Graph: trainingSpec(6), Budget: (minB + peak) / 2, Method: "anytime", TimeLimitMS: 60_000,
	})
	if errResp != nil {
		t.Fatalf("anytime solve under worker panics: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !resp.Degraded || resp.DegradedCode != "panic" {
		t.Fatalf("degradation not stamped: degraded=%v code=%q reason=%q", resp.Degraded, resp.DegradedCode, resp.DegradedReason)
	}
	if resp.Method == "anytime" || resp.Method == "optimal" || resp.Method == "" {
		t.Fatalf("Method = %q, want a concrete fallback rung", resp.Method)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("degraded response carries no plan")
	}

	var st api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Degraded.Solves < 1 || st.Degraded.ByCode["panic"] < 1 {
		t.Fatalf("stats degraded block = %+v, want >= 1 panic", st.Degraded)
	}
	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "checkmate_degraded_solves_total"); v < 1 {
		t.Fatalf("checkmate_degraded_solves_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, `checkmate_degraded_solves_by_code_total{code="panic",method="`+resp.Method+`"}`); v < 1 {
		t.Fatalf("per-code degraded counter = %v, want >= 1", v)
	}

	// The process is fine: the next request works.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after worker panics: %v %v", err, resp2)
	}
	resp2.Body.Close()
}

// TestChaosDeadlineShorterThanOptimal: injected per-node latency makes the
// optimal rung provably unable to finish inside its slice; the ladder still
// answers within the deadline plus grace, degraded.
func TestChaosDeadlineShorterThanOptimal(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		// The sleep is uncancellable, so the optimal rung blocks for the
		// full 250ms — past its ~200ms slice of the 400ms deadline, but
		// with room left for a fallback rung to answer.
		faultinject.MILPWorker: {Latency: 250 * time.Millisecond},
	}))()
	_, ts := testServer(t)

	minB, peak := trainingBudgets(t, 8)
	start := time.Now()
	resp, errResp := postSolve(t, ts, api.SolveRequest{
		Graph: trainingSpec(8), Budget: (minB + peak) / 2, Method: "anytime", TimeLimitMS: 400,
	})
	elapsed := time.Since(start)
	if errResp != nil {
		t.Fatalf("deadline-bound anytime solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !resp.Degraded {
		t.Fatalf("response not degraded under an impossible deadline: %+v", resp)
	}
	// Grace covers plan serialization and slow CI machines, not solver time.
	if elapsed > 400*time.Millisecond+10*time.Second {
		t.Fatalf("solve took %v against a 400ms deadline", elapsed)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("degraded response carries no plan")
	}
}

// TestChaosHandlerPanicAnswers500: a panic inside a handler becomes a 500
// carrying the request ID; the next request is served normally.
func TestChaosHandlerPanicAnswers500(t *testing.T) {
	defer faultinject.Enable(faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.Handler: {Panic: "chaos", Count: 1},
	}))()
	_, ts := testServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "chaos-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("handler panic dropped the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500 from the contained panic", resp.StatusCode)
	}
	var e api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "chaos-rid-1" {
		t.Fatalf("500 body request_id = %q, want chaos-rid-1", e.RequestID)
	}
	if !strings.Contains(e.Error, "chaos") {
		t.Fatalf("500 body error = %q", e.Error)
	}

	// Rule count exhausted: the server answers normally again.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after contained panic: %v %v", err, resp2)
	}
	resp2.Body.Close()

	body := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "checkmate_handler_panics_total"); v != 1 {
		t.Fatalf("checkmate_handler_panics_total = %v, want 1", v)
	}
}

// TestChaosPoolDispatchFaults: an injected dispatch error fails only its own
// flight; a panic at the same point is contained by the worker and surfaces
// as a 500, with the pool fully functional afterwards.
func TestChaosPoolDispatchFaults(t *testing.T) {
	inj := faultinject.NewInjector(map[faultinject.Point]faultinject.Rule{
		faultinject.PoolDispatch: {Err: errors.New("injected dispatch failure"), Count: 1},
	})
	defer faultinject.Enable(inj)()
	_, ts := testServer(t)

	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, NoCache: true}); errResp == nil {
		t.Fatal("injected dispatch error did not fail the solve")
	}

	inj.Set(faultinject.PoolDispatch, faultinject.Rule{Panic: "chaos", Count: 1})
	body, _ := json.Marshal(api.SolveRequest{Graph: chainSpec(10), Budget: 6, NoCache: true})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("worker panic killed the request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked flight: HTTP %d, want 500", resp.StatusCode)
	}

	// Both faults spent: the pool serves normally.
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, NoCache: true}); errResp != nil {
		t.Fatalf("solve after contained faults: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
}
