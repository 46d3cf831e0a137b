package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"

	"repro/internal/graph"
	"repro/internal/service/api"
	"repro/internal/telemetry"
)

// handleSweepStream is GET /v1/sweep/stream: the streaming twin of
// POST /v1/sweep. The request arrives as query parameters (budgets as a
// comma-separated list); the response is an SSE stream of one "sweep_point"
// frame per completed budget — in completion order, each carrying its index
// into the final budget-ascending Points slice — ending in a terminal "done"
// frame whose Sweep field is the exact SweepResponse the blocking endpoint
// returns. Watchers of an identical sweep share one in-flight run, and
// Last-Event-ID resumes a dropped connection against its event history.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.rejectIfDraining(w, r) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var req api.SweepRequest
	if err := api.DecodeQuery(r.URL.Query(), &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	plan, status, err := s.buildSweepPlan(req)
	if err != nil {
		writeErr(w, r, status, "%v", err)
		return
	}

	// Fleet routing mirrors the blocking sweep: same routing key, so the
	// streamed and blocking forms of one sweep land on the same owner and
	// share its warm-start state. Relay failure falls through to a local
	// sweep whose stream opens with a degraded frame.
	var fleetOwner string
	if owner, ok := s.forwardTarget(r, sweepKey(plan.wl, plan.method)); ok {
		if s.relayStream(w, r, flusher, owner) {
			return
		}
		fleetOwner = owner
		s.fleet.NoteLocalFallback()
	}

	rid := telemetry.RequestID(r.Context())
	keys := plan.solveKeys()
	hub, release := s.attachStream(sweepStreamKey(plan, keys), func(ctx context.Context, h *streamHub) {
		if rid != "" {
			ctx = telemetry.WithRequestID(ctx, rid)
		}
		if fleetOwner != "" {
			h.publish(api.StreamEventDegraded, api.StreamDegraded{
				From:   "fleet:" + fleetOwner,
				To:     "local",
				Reason: "fleet owner unreachable; sweeping locally",
			})
		}
		total := len(plan.params)
		resp := s.runSweep(ctx, plan, keys, func(i int, pt api.SweepPoint) {
			h.publish(api.StreamEventSweepPoint, api.StreamSweepPoint{
				Index: i, Total: total, Point: pt,
			})
		})
		done := api.StreamDone{Sweep: &resp, RequestID: rid}
		if err := ctx.Err(); err != nil {
			// Last watcher left mid-sweep; whoever replays this hub's tail
			// still learns the sweep did not finish.
			done.Error = err.Error()
			done.Status = http.StatusRequestTimeout
		}
		h.publish(api.StreamEventDone, done)
		s.removeStream(h)
	})
	defer release()

	s.serveSSE(w, r, flusher, hub)
}

// sweepStreamKey names the hub of one exact sweep. It hashes every point's
// SolveKey (keys, from plan.solveKeys), so two sweeps share a hub — and one
// in-flight run — only when they agree on the workload, method, budget
// list, and solve options. The "sweep/" namespace keeps hub keys disjoint
// from solve-stream hubs (bare SolveKey strings) and from receiving
// keyObserver solver events.
func sweepStreamKey(plan *sweepPlan, keys []graph.Fingerprint) string {
	h := sha256.New()
	io.WriteString(h, "checkmate/sweep-stream/v1")
	io.WriteString(h, "\x00"+plan.wl.Fingerprint().String())
	io.WriteString(h, "\x00"+plan.method)
	for _, key := range keys {
		io.WriteString(h, "\x00"+key.String())
	}
	return "sweep/" + hex.EncodeToString(h.Sum(nil)[:16])
}
