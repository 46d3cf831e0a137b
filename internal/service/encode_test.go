package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service/api"
)

// TestWriteJSONUnencodable: a value encoding/json refuses is answered with
// a 500 and an error body, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &api.SolveResponse{Overhead: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", rec.Code)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q (decode error %v)", rec.Body.String(), err)
	}
}

// TestStreamHubUnencodableDone: a done frame that cannot be encoded still
// ends the stream, with an error frame in its place.
func TestStreamHubUnencodableDone(t *testing.T) {
	srv, _ := testServer(t)
	h := newStreamHub("k", func() {})
	h.publish(api.StreamEventDone, api.StreamDone{
		Result:    &api.SolveResponse{Overhead: math.NaN()},
		RequestID: "req-1",
	})
	if _, closed := h.eventsAfter(0); !closed {
		t.Fatal("hub still open after its done frame")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, "/v1/solve/stream", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.serveSSE(rec, r, rec, h)
	frames, _ := readSSE(t, strings.NewReader(rec.Body.String()))
	if len(frames) != 1 || frames[0].Event != api.StreamEventDone {
		t.Fatalf("served frames %+v, want one done frame", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[0].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != http.StatusInternalServerError || done.Error == "" || done.Result != nil {
		t.Fatalf("done frame %s, want an error with status 500", frames[0].Data)
	}
	if done.RequestID != "req-1" {
		t.Fatalf("done frame lost its request_id: %s", frames[0].Data)
	}
}
