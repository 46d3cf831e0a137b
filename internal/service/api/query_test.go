package api

import (
	"reflect"
	"strings"
	"testing"
)

// TestQueryRoundTrip: every field of a fully populated request survives
// EncodeQuery then DecodeQuery, so the stream endpoints carry exactly what
// the blocking endpoints do.
func TestQueryRoundTrip(t *testing.T) {
	graph := &GraphSpec{
		Nodes: []NodeSpec{
			{Name: "x", Cost: 0.5, Mem: 3, Stage: 1},
			{Name: "grad:x", Cost: 1.25, Mem: 7, Backward: true, Stage: 1},
		},
		Edges:    [][2]int{{0, 1}},
		Overhead: 11,
	}
	reqs := []any{
		&SolveRequest{Model: "vgg16", Batch: 4, Device: "tpu", CoarseSegments: 12, Graph: graph,
			Budget: 1 << 33, Method: "interval", TimeLimitMS: 1500, RelGap: 0.0125, NoCache: true},
		&SweepRequest{Model: "unet", Batch: 2, Device: "cpu", CoarseSegments: 10, Graph: graph,
			Budgets: []int64{7, 1 << 40, 3}, Points: 5, Method: "approx", TimeLimitMS: 250, RelGap: 1e-7},
	}
	for _, req := range reqs {
		v := reflect.ValueOf(req).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%T.%s is unset: the round trip must cover every field", req, v.Type().Field(i).Name)
			}
		}
		q, err := EncodeQuery(req)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(v.Type()).Interface()
		if err := DecodeQuery(q, got); err != nil {
			t.Fatalf("decoding %s: %v", q.Encode(), err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", got, req)
		}
	}
}

// TestQueryOmitsZeroAndRejectsUnknown: zero fields are left out of the
// query, and a parameter no field is named after is an error that names it.
func TestQueryOmitsZeroAndRejectsUnknown(t *testing.T) {
	q, err := EncodeQuery(SweepRequest{Budgets: []int64{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Encode(); got != "" {
		t.Fatalf("empty sweep encoded as %q", got)
	}
	if q, err = EncodeQuery(SolveRequest{Budget: 6}); err != nil {
		t.Fatal(err)
	}
	if got := q.Encode(); got != "budget=6" {
		t.Fatalf("encoded %q, want only the budget", got)
	}
	q.Set("solver", "approx")
	err = DecodeQuery(q, &SolveRequest{})
	if err == nil || !strings.Contains(err.Error(), `"solver"`) {
		t.Fatalf("unknown parameter: err = %v", err)
	}
}
