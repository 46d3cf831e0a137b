package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/checkmate"
	"repro/internal/service/api"
)

// TestMethodsEndpoint: GET /v1/methods serves the checkmate method registry
// verbatim — names, order, and descriptions — so clients discover the legal
// "method" values from the server they talk to.
func TestMethodsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var out api.MethodsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	reg := checkmate.Methods()
	if len(out.Methods) != len(reg) {
		t.Fatalf("served %d methods, registry has %d", len(out.Methods), len(reg))
	}
	for i, mi := range out.Methods {
		if mi.Method != string(reg[i].Method) || mi.Description != reg[i].Description {
			t.Fatalf("method %d: served %+v, registry %+v", i, mi, reg[i])
		}
	}
}

// TestSolveMethodField: the first-class "method" field routes the solve and
// is echoed (resolved) in the response; the interval method keys its own
// cache entries.
func TestSolveMethodField(t *testing.T) {
	_, ts := testServer(t)
	opt, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if errResp != nil {
		t.Fatalf("optimal solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if opt.Method != string(checkmate.Optimal) {
		t.Fatalf("default solve reported method %q", opt.Method)
	}
	iv, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: string(checkmate.Interval)})
	if errResp != nil {
		t.Fatalf("interval solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if iv.Method != string(checkmate.Interval) {
		t.Fatalf("interval solve reported method %q", iv.Method)
	}
	if iv.Fingerprint == opt.Fingerprint {
		t.Fatal("interval and optimal solves share a fingerprint")
	}
	if iv.PeakBytes > iv.Budget {
		t.Fatalf("interval peak %d over budget %d", iv.PeakBytes, iv.Budget)
	}
	// Same request again: served from the method-distinct cache entry.
	again, _ := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: string(checkmate.Interval)})
	if !again.Cached || again.Fingerprint != iv.Fingerprint {
		t.Fatalf("repeat interval solve: cached=%v fingerprint %s (want %s)", again.Cached, again.Fingerprint, iv.Fingerprint)
	}
}

// TestSolveAutoMethod: method "auto" is accepted and the response names the
// concrete method the router chose, never "auto".
func TestSolveAutoMethod(t *testing.T) {
	_, ts := testServer(t)
	resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: string(checkmate.Auto)})
	if errResp != nil {
		t.Fatalf("auto solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if resp.Method == string(checkmate.Auto) || resp.Method == "" {
		t.Fatalf("auto solve reported method %q, want the resolved method", resp.Method)
	}
}

// TestSolveUnknownMethod400: a bad method is a 400 whose body enumerates
// every legal method name.
func TestSolveUnknownMethod400(t *testing.T) {
	_, ts := testServer(t)
	_, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: "quantum"})
	if errResp == nil {
		t.Fatal("unknown method accepted")
	}
	if errResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", errResp.StatusCode)
	}
	for _, name := range checkmate.MethodNames() {
		if !strings.Contains(errResp.Status, name) {
			t.Fatalf("400 body %q does not enumerate method %q", errResp.Status, name)
		}
	}
}

// TestSolverFieldRejected: "solver", the retired alias of "method", is an
// unknown field now. A request that still sets it, in a body or a stream
// query, is a 400 naming the field instead of a silent solve under the
// default method.
func TestSolverFieldRejected(t *testing.T) {
	srv, ts := testServer(t)
	spec, _ := json.Marshal(chainSpec(10))
	graph := url.QueryEscape(string(spec))
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/solve", fmt.Sprintf(`{"graph":%s,"budget":6,"solver":"approx"}`, spec)},
		{http.MethodPost, "/v1/sweep", fmt.Sprintf(`{"graph":%s,"budgets":[6],"solver":"approx"}`, spec)},
		{http.MethodGet, "/v1/solve/stream?budget=6&solver=approx&graph=" + graph, ""},
		{http.MethodGet, "/v1/sweep/stream?budgets=6&solver=approx&graph=" + graph, ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"solver"`) {
			t.Fatalf("%s %s: HTTP %d %q, want 400 naming solver", tc.method, tc.path, resp.StatusCode, e.Error)
		}
	}
	if st := srv.Stats(); st.Solves != 0 {
		t.Fatalf("rejected requests still solved: %d solves", st.Solves)
	}
}
