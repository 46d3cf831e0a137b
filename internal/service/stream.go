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
// hub replaces with one carrying the wire-format result). So is a progress
// frame that cannot be encoded; a done frame that cannot be encoded is
// replaced by an error frame with status 500, so the stream still ends.
func (h *streamHub) publish(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		if event != api.StreamEventDone {
			return
		}
		done := api.StreamDone{Error: "encoding done frame: " + err.Error(), Status: http.StatusInternalServerError}
		if d, ok := payload.(api.StreamDone); ok {
			done.RequestID = d.RequestID
		}
		data, _ = json.Marshal(done) // strings and an int: always encodes
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
