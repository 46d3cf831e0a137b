package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/api"
)

func testClient(t *testing.T) *Client {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 2, DefaultTimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL, nil)
}

func chainSpec(n int) *api.GraphSpec {
	s := &api.GraphSpec{}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, api.NodeSpec{Cost: 1, Mem: 1})
		if i > 0 {
			s.Edges = append(s.Edges, [2]int{i - 1, i})
		}
	}
	return s
}

func TestClientEndToEnd(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatalf("no models")
	}

	resp, err := c.Solve(ctx, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := DecodePlan(resp)
	if err != nil {
		t.Fatalf("decoding plan: %v", err)
	}
	if len(plan.Stmts) == 0 {
		t.Fatalf("empty plan")
	}

	again, err := c.Solve(ctx, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("second solve not cached")
	}

	sweep, err := c.Sweep(ctx, api.SweepRequest{Graph: chainSpec(10), Points: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("sweep returned %d points", len(sweep.Points))
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits == 0 || stats.Solves == 0 {
		t.Fatalf("stats look empty: %+v", stats)
	}
}

func TestClientErrorSurfacesServerMessage(t *testing.T) {
	c := testClient(t)
	_, err := c.Solve(context.Background(), api.SolveRequest{Budget: 6})
	if err == nil {
		t.Fatalf("invalid request succeeded")
	}
	if !strings.Contains(err.Error(), "model or graph") {
		t.Fatalf("server error message lost: %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *APIError: %T %v", err, err)
	}
	if ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", ae.StatusCode)
	}
	if IsOverloaded(err) {
		t.Fatalf("400 misclassified as overload")
	}
}

func TestIsOverloadedRecognizes503(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"service: projected solver load exceeds the admission limit"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, nil)
	_, err := c.Solve(context.Background(), api.SolveRequest{Graph: chainSpec(4), Budget: 6})
	if err == nil {
		t.Fatalf("503 reported success")
	}
	if !IsOverloaded(err) {
		t.Fatalf("IsOverloaded(%v) = false, want true", err)
	}
	if !strings.Contains(err.Error(), "admission limit") {
		t.Fatalf("server message lost: %v", err)
	}
}

// TestClientSolveStream: the streaming client must surface every SSE frame
// in order and return the same response the blocking endpoint produces.
func TestClientSolveStream(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()
	req := api.SolveRequest{Graph: chainSpec(12), Budget: 7}

	var events []string
	streamed, err := c.SolveStream(ctx, req, 0, func(ev api.StreamEvent) {
		events = append(events, ev.Event)
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed == nil || streamed.Fingerprint == "" {
		t.Fatalf("streamed response malformed: %+v", streamed)
	}
	if len(events) < 2 || events[0] != api.StreamEventStarted || events[len(events)-1] != api.StreamEventDone {
		t.Fatalf("frame sequence %v, want started ... done", events)
	}

	blocking, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Fingerprint != streamed.Fingerprint {
		t.Fatalf("streamed fingerprint %s != blocking %s", streamed.Fingerprint, blocking.Fingerprint)
	}
	if !blocking.Cached {
		t.Fatal("blocking solve after the stream missed the cache")
	}
}

// TestClientSolveStreamError: solver failures arrive through the done frame
// as a typed *APIError with the blocking endpoint's status.
func TestClientSolveStreamError(t *testing.T) {
	c := testClient(t)
	_, err := c.SolveStream(context.Background(), api.SolveRequest{Graph: chainSpec(10), Budget: 1}, 0, nil)
	if err == nil {
		t.Fatal("infeasible streamed solve succeeded")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *APIError: %T %v", err, err)
	}
	if ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", ae.StatusCode)
	}
}

// TestClientStreamsCarryEveryField: the stream endpoints take a request as
// query parameters and reject any they do not know, so every request field
// the client encodes must be one the server decodes. Between them, the
// requests below set every field of both request types.
func TestClientStreamsCarryEveryField(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()
	const limitMS = 20000
	solves := []api.SolveRequest{
		{Model: "linear32", Batch: 2, Device: "cpu", CoarseSegments: 8, Budget: 1 << 40,
			Method: "interval", TimeLimitMS: limitMS, RelGap: 0.05, NoCache: true},
		{Graph: chainSpec(10), Budget: 6, Method: "optimal", TimeLimitMS: limitMS, RelGap: 0.05, NoCache: true},
	}
	sweeps := []api.SweepRequest{
		{Model: "linear32", Batch: 2, Device: "cpu", CoarseSegments: 8, Points: 2,
			Method: "interval", TimeLimitMS: limitMS, RelGap: 0.05},
		{Graph: chainSpec(10), Budgets: []int64{6, 8}, Method: "optimal", TimeLimitMS: limitMS, RelGap: 0.05},
	}
	requireEveryField(t, solves[0], solves[1])
	requireEveryField(t, sweeps[0], sweeps[1])
	for _, req := range solves {
		resp, err := c.SolveStream(ctx, req, 0, nil)
		if err != nil {
			t.Fatalf("SolveStream %+v: %v", req, err)
		}
		if resp.Method != req.Method || resp.Budget != req.Budget {
			t.Fatalf("solved method %q budget %d, asked %q %d", resp.Method, resp.Budget, req.Method, req.Budget)
		}
	}
	for _, req := range sweeps {
		resp, err := c.SweepStream(ctx, req, 0, nil)
		if err != nil {
			t.Fatalf("SweepStream %+v: %v", req, err)
		}
		if len(resp.Points) != 2 {
			t.Fatalf("sweep returned %d points, want 2", len(resp.Points))
		}
		for _, pt := range resp.Points {
			if !pt.Feasible {
				t.Fatalf("sweep point %+v failed", pt)
			}
		}
	}
}

// requireEveryField fails unless each field of the requests' type is set in
// at least one of them.
func requireEveryField(t *testing.T, reqs ...any) {
	t.Helper()
	typ := reflect.TypeOf(reqs[0])
	for i := 0; i < typ.NumField(); i++ {
		set := false
		for _, req := range reqs {
			set = set || !reflect.ValueOf(req).Field(i).IsZero()
		}
		if !set {
			t.Errorf("%s.%s is set by none of the requests", typ.Name(), typ.Field(i).Name)
		}
	}
}

// TestClientMethods: the client discovers the server's solver methods, and
// a method-carrying request round-trips through both the blocking and the
// streaming endpoint with the method echoed back.
func TestClientMethods(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()

	methods, err := c.Methods(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) == 0 {
		t.Fatal("no methods")
	}
	byName := map[string]bool{}
	for _, m := range methods {
		if m.Description == "" {
			t.Errorf("method %q has no description", m.Method)
		}
		byName[m.Method] = true
	}
	if !byName["interval"] || !byName["auto"] {
		t.Fatalf("methods %v missing interval/auto", byName)
	}

	req := api.SolveRequest{Graph: chainSpec(10), Budget: 6, Method: "interval"}
	blocking, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Method != "interval" {
		t.Fatalf("blocking solve reported method %q", blocking.Method)
	}
	// The stream query must carry the method too: same fingerprint means the
	// streamed solve keyed — and therefore routed — identically.
	streamed, err := c.SolveStream(ctx, req, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Method != "interval" || streamed.Fingerprint != blocking.Fingerprint {
		t.Fatalf("streamed method %q fingerprint %s, want interval %s",
			streamed.Method, streamed.Fingerprint, blocking.Fingerprint)
	}
}
