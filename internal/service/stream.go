package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/checkmate"
	"repro/internal/graph"
	"repro/internal/service/api"
	"repro/internal/telemetry"
)

// streamHub fans one in-flight solve's progress out to any number of SSE
// watchers. All watchers of the same SolveKey share one hub — and through
// it one flight in the worker pool — so a thundering herd of dashboards
// costs one solve. The hub keeps the full event history of its solve:
// watchers that attach late (or reconnect with Last-Event-ID) replay the
// part they missed, then follow live.
type streamHub struct {
	key    string
	cancel context.CancelFunc // stops the solve when the last watcher leaves

	mu     sync.Mutex
	events []api.StreamEvent // IDs are 1-based positions in this slice
	subs   map[int]chan struct{}
	nextID int
	refs   int
	closed bool // terminal event published
}

func newStreamHub(key string, cancel context.CancelFunc) *streamHub {
	return &streamHub{key: key, cancel: cancel, subs: make(map[int]chan struct{})}
}

// publish appends one event and pokes every subscriber. Events after the
// terminal done are dropped (the solver emits its own done event, which the
// hub replaces with one carrying the wire-format result).
func (h *streamHub) publish(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.events = append(h.events, api.StreamEvent{ID: len(h.events) + 1, Event: event, Data: data})
	if event == api.StreamEventDone {
		h.closed = true
	}
	for _, ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a wakeup pending
		}
	}
}

// subscribe registers a watcher and returns its wakeup channel.
func (h *streamHub) subscribe() (int, <-chan struct{}) {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	return id, ch
}

func (h *streamHub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, id)
}

// eventsAfter returns the events beyond the cursor (a last-seen event ID)
// and whether the stream has terminated. The returned slice is a stable
// snapshot: events are append-only.
func (h *streamHub) eventsAfter(cursor int) ([]api.StreamEvent, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(h.events) {
		return nil, h.closed
	}
	return h.events[cursor:], h.closed
}

// terminal returns the stream's done frame, if published. Event IDs are
// per-hub: a watcher reconnecting with a Last-Event-ID from a previous
// (finished, unregistered) hub can overshoot a fresh hub's short history —
// typically a single cached done frame — and must still receive the
// terminal result rather than an empty stream.
func (h *streamHub) terminal() (api.StreamEvent, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed || len(h.events) == 0 {
		return api.StreamEvent{}, false
	}
	return h.events[len(h.events)-1], true
}

// solverEvent adapts one solver progress event onto the hub's wire frames.
// The terminal Done is intentionally not mapped here: the goroutine driving
// the solve publishes it from the pool result, which carries the serialized
// SolveResponse (and is also produced on cache hits, where no solver event
// ever fires).
func (h *streamHub) solverEvent(e checkmate.Event, key graph.Fingerprint, graphNodes int) {
	switch e.Kind {
	case checkmate.EventStarted:
		h.publish(api.StreamEventStarted, api.StreamStarted{
			Fingerprint: key.String(),
			Budget:      e.Budget,
			GraphNodes:  graphNodes,
			Vars:        e.Vars,
			Rows:        e.Rows,
		})
	case checkmate.EventIncumbent:
		p := api.StreamIncumbent{
			Objective: e.Objective,
			Overhead:  e.Overhead,
			ElapsedMS: float64(e.Elapsed.Microseconds()) / 1e3,
		}
		if !math.IsInf(e.Bound, 0) && !math.IsNaN(e.Bound) {
			b, g := e.Bound, e.Gap
			p.Bound, p.Gap = &b, &g
		}
		h.publish(api.StreamEventIncumbent, p)
	case checkmate.EventBound:
		if math.IsInf(e.Bound, 0) || math.IsNaN(e.Bound) {
			return
		}
		h.publish(api.StreamEventBound, api.StreamBound{
			Bound:     e.Bound,
			ElapsedMS: float64(e.Elapsed.Microseconds()) / 1e3,
		})
	case checkmate.EventDegraded:
		h.publish(api.StreamEventDegraded, api.StreamDegraded{
			From:      string(e.From),
			To:        string(e.To),
			Reason:    e.Reason,
			ElapsedMS: float64(e.Elapsed.Microseconds()) / 1e3,
		})
	}
}

// keyObserver forwards solver events to whatever hub watches key at the
// moment each event fires. The lookup is per event (they are rate-limited
// upstream) rather than bound at solve start, so a stream watcher that
// attaches to an already-in-flight solve — the pool's single-flight dedup
// joins it to a flight started by a blocking request — still receives the
// remaining incumbent/bound trajectory instead of a silent stream.
func (s *Server) keyObserver(key graph.Fingerprint, graphNodes int) checkmate.Observer {
	keyStr := key.String()
	return checkmate.ObserverFunc(func(e checkmate.Event) {
		s.streamMu.Lock()
		h := s.streams[keyStr]
		s.streamMu.Unlock()
		if h != nil {
			h.solverEvent(e, key, graphNodes)
		}
	})
}

// attachStream returns the hub streaming the solve for key, creating it —
// and starting the solve via start — when none is in flight. The returned
// release must be called exactly once per attach; the last watcher to leave
// cancels a still-running solve.
func (s *Server) attachStream(key string, start func(ctx context.Context, h *streamHub)) (*streamHub, func()) {
	s.streamMu.Lock()
	h, ok := s.streams[key]
	if !ok {
		// The solve outlives any single watcher: it is cancelled by the
		// *last* watcher leaving (detachStream), not by the request context
		// of whichever watcher happened to start it.
		//lint:detach stream solve lifetime is the union of its watchers, not one request
		ctx, cancel := context.WithCancel(context.Background())
		h = newStreamHub(key, cancel)
		s.streams[key] = h
		go func() {
			defer func() {
				if rec := recover(); rec != nil {
					perr := telemetry.Recovered("service.stream", rec)
					s.metrics.handlerPanics.Inc()
					s.log.Error("stream solve panic contained", "key", key,
						"err", perr, "stack", string(perr.Stack))
					// Watchers must still get a terminal frame, and the dead
					// hub must not capture future attaches for this key.
					h.publish(api.StreamEventDone, api.StreamDone{
						Error:  perr.Error(),
						Status: http.StatusInternalServerError,
					})
					s.removeStream(h)
				}
			}()
			start(ctx, h)
		}()
	}
	h.mu.Lock()
	h.refs++
	h.mu.Unlock()
	s.streamMu.Unlock()
	return h, func() { s.detachStream(h) }
}

// detachStream drops one watcher; the last one out cancels the solve (a
// no-op when it already finished) and unregisters the hub.
func (s *Server) detachStream(h *streamHub) {
	s.streamMu.Lock()
	h.mu.Lock()
	h.refs--
	last := h.refs == 0
	h.mu.Unlock()
	if last && s.streams[h.key] == h {
		delete(s.streams, h.key)
	}
	s.streamMu.Unlock()
	if last {
		h.cancel()
	}
}

// removeStream unregisters a finished hub so the next watcher starts fresh
// (and, the solve now being cached, completes immediately). Watchers still
// attached keep draining their hub reference.
func (s *Server) removeStream(h *streamHub) {
	s.streamMu.Lock()
	if s.streams[h.key] == h {
		delete(s.streams, h.key)
	}
	s.streamMu.Unlock()
}

// handleSolveStream is GET /v1/solve/stream: the streaming twin of
// POST /v1/solve. The request arrives as query parameters (the graph
// alternative as a JSON-encoded "graph" parameter); the response is a
// Server-Sent-Events stream of started/incumbent/bound frames ending in a
// terminal done frame that carries the exact SolveResponse the blocking
// endpoint returns. Concurrent watchers of one SolveKey attach to a single
// in-flight solve; Last-Event-ID resumes a dropped connection against that
// solve's event history.
func (s *Server) handleSolveStream(w http.ResponseWriter, r *http.Request) {
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
	req, err := solveRequestFromQuery(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.solveParamsFrom(req.EffectiveMethod(), req.Budget, req.TimeLimitMS, req.RelGap)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	wl, err := s.buildWorkload(workloadSpec{
		model: req.Model, batch: req.Batch, device: req.Device,
		coarseSegments: req.CoarseSegments, graph: req.Graph,
	})
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "building workload: %v", err)
		return
	}
	key := wl.SolveKeyFor(p.method, p.budget, p.opt)

	// Fleet routing: relay the owner's stream byte-for-byte when the key is
	// someone else's. Relay failure falls through to a local solve whose
	// stream opens with a degraded frame and whose done result carries the
	// fleet_local stamp — the same story the blocking endpoint tells.
	var fleetOwner string
	if owner, ok := s.forwardTarget(r, key.String()); ok {
		cachedLocally := false
		if !req.NoCache {
			// Cached locally: stream the local (instant) solve rather than
			// relaying; solveKeyed below hits the same cache.
			_, cachedLocally = s.cachedResponse(key)
		}
		if !cachedLocally {
			if s.relayStream(w, r, flusher, owner) {
				return
			}
			fleetOwner = owner
		}
	}

	// The hub's solve goroutine runs on a detached context (watchers come and
	// go); carry the initiating request's ID into it so the solve — and the
	// done frame every watcher receives — stays correlated with this request.
	rid := telemetry.RequestID(r.Context())
	hub, release := s.attachStream(key.String(), func(ctx context.Context, h *streamHub) {
		if rid != "" {
			ctx = telemetry.WithRequestID(ctx, rid)
		}
		if fleetOwner != "" {
			h.publish(api.StreamEventDegraded, api.StreamDegraded{
				From:   "fleet:" + fleetOwner,
				To:     "local",
				Reason: "fleet owner unreachable; solving locally",
			})
		}
		resp, err := s.solveKeyed(ctx, wl, p, key, req.NoCache)
		if err == nil && fleetOwner != "" {
			s.stampFleetLocal(resp, fleetOwner)
		}
		done := api.StreamDone{Result: resp, RequestID: rid}
		if err != nil {
			done.Error = err.Error()
			done.Status = solveStatus(err)
		}
		h.publish(api.StreamEventDone, done)
		s.removeStream(h)
	})
	defer release()

	s.serveSSE(w, r, flusher, hub)
}

// serveSSE drains hub to one SSE watcher: replay from the request's
// Last-Event-ID cursor, then follow live with heartbeats until the terminal
// frame (or the client leaves). Shared by the solve and sweep streams —
// a hub is a hub; only what gets published into it differs.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, flusher http.Flusher, hub *streamHub) {
	cursor := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.Atoi(v); err == nil && id > 0 {
			cursor = id
		}
	}

	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("Connection", "keep-alive")
	hdr.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	subID, wake := hub.subscribe()
	defer hub.unsubscribe(subID)
	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()

	wrote := false
	for {
		evs, done := hub.eventsAfter(cursor)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return // client went away mid-write
			}
			cursor = ev.ID
			wrote = true
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done && len(evs) == 0 {
			// A Last-Event-ID from an earlier hub's stream can overshoot
			// this hub's entire history; never end a stream without its
			// terminal frame.
			if !wrote {
				if term, ok := hub.terminal(); ok {
					if err := writeSSE(w, term); err == nil {
						flusher.Flush()
					}
				}
			}
			return
		}
		if done {
			continue // drain anything published between snapshot and now
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			// SSE comment line: keeps proxies and idle connections alive
			// without becoming an event.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return // release() cancels the solve if we were the last watcher
		}
	}
}

// writeSSE emits one Server-Sent-Events frame.
func writeSSE(w io.Writer, ev api.StreamEvent) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Event, ev.Data)
	return err
}

// solveRequestFromQuery decodes the SSE endpoint's query parameters into
// the same SolveRequest shape POST /v1/solve reads from its body.
func solveRequestFromQuery(r *http.Request) (api.SolveRequest, error) {
	q := r.URL.Query()
	req := api.SolveRequest{
		Model:  q.Get("model"),
		Device: q.Get("device"),
		Method: q.Get("method"),
		Solver: q.Get("solver"),
	}
	intOf := func(name string) (int64, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parameter %s: %v", name, err)
		}
		return n, nil
	}
	var err error
	var n int64
	if n, err = intOf("batch"); err != nil {
		return req, err
	}
	req.Batch = int(n)
	if n, err = intOf("coarse_segments"); err != nil {
		return req, err
	}
	req.CoarseSegments = int(n)
	if req.Budget, err = intOf("budget"); err != nil {
		return req, err
	}
	if req.TimeLimitMS, err = intOf("time_limit_ms"); err != nil {
		return req, err
	}
	if v := q.Get("rel_gap"); v != "" {
		if req.RelGap, err = strconv.ParseFloat(v, 64); err != nil {
			return req, fmt.Errorf("parameter rel_gap: %v", err)
		}
	}
	if v := q.Get("no_cache"); v != "" {
		if req.NoCache, err = strconv.ParseBool(v); err != nil {
			return req, fmt.Errorf("parameter no_cache: %v", err)
		}
	}
	if v := q.Get("graph"); v != "" {
		var spec api.GraphSpec
		if err := json.Unmarshal([]byte(v), &spec); err != nil {
			return req, fmt.Errorf("parameter graph: %v", err)
		}
		req.Graph = &spec
	}
	return req, nil
}
