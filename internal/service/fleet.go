package service

// Fleet-mode glue: the decision of whether a request is ours to solve, the
// relays that proxy it to its rendezvous owner, and the fleet_local stamp
// applied when the owner cannot answer and availability wins over dedup.
// The mechanics (membership, health, hedged forwarding) live in
// internal/service/fleet; this file is only the handler-side policy.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/checkmate"
	"repro/internal/graph"
	"repro/internal/service/api"
	"repro/internal/service/fleet"
	"repro/internal/telemetry"
)

// forwardSlack pads a forwarded request's per-attempt timeout beyond the
// solve's own time limit: the owner needs queueing + transfer headroom, and
// a timeout shorter than the solve would abandon work that was about to
// finish.
const forwardSlack = 10 * time.Second

// forwardTarget decides whether r should be proxied for key: fleet mode is
// on, the request is not itself a forwarded hop (the one-hop bound that
// makes routing loops impossible under divergent health views), and the
// key's owner is a healthy remote peer.
func (s *Server) forwardTarget(r *http.Request, key string) (string, bool) {
	if s.fleet == nil || r.Header.Get(fleet.HopHeader) != "" {
		return "", false
	}
	owner, self := s.fleet.Owner(key)
	if self {
		return "", false
	}
	return owner, true
}

// cachedResponse consults both cache tiers for key — the in-memory shard,
// then the persistent store — and returns a mutable copy stamped Cached. A
// store hit repopulates the memory shard so the next lookup skips the disk
// read too. solveKeyed calls it before solving, and fleet handlers before
// forwarding: a locally cached answer never crosses the network, whoever
// owns the key.
func (s *Server) cachedResponse(key graph.Fingerprint) (*api.SolveResponse, bool) {
	if resp, ok := s.cache.get(key); ok {
		resp.Cached = true
		return resp, true
	}
	if resp, ok := s.loadStored(key); ok {
		s.cache.put(key, resp)
		cp := *resp
		cp.Cached = true
		return &cp, true
	}
	return nil, false
}

// relaySolve proxies one solve-plane JSON request to owner and relays the
// owner's definitive answer verbatim — status, content type, body — so the
// non-owner is a transparent proxy (a 422 infeasible from the owner must
// reach the client as exactly that, not trigger a local re-solve). A 200
// solve response is also unmarshaled into the local memory cache so this
// instance answers the next request for the key itself. Returns false when
// the owner produced no definitive answer within the attempt budget; the
// caller then solves locally under fleet_local.
func (s *Server) relaySolve(w http.ResponseWriter, r *http.Request, owner, path string, body []byte, timeout time.Duration, cacheKey graph.Fingerprint) bool {
	res, err := s.fleet.ForwardJSON(r.Context(), owner, path, body, telemetry.RequestID(r.Context()), timeout+forwardSlack)
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; answer with its error rather than burning
			// a local solve nobody will read.
			writeErr(w, r, http.StatusRequestTimeout, "%v", r.Context().Err())
			return true
		}
		s.log.Warn("fleet forward failed; solving locally",
			"owner", owner, "path", path, "err", err)
		return false
	}
	if res.Status == http.StatusOK && !cacheKey.IsZero() {
		var resp api.SolveResponse
		if jerr := json.Unmarshal(res.Body, &resp); jerr == nil {
			cp := resp
			cp.Cached = false // per-request flag; the cache stores the bare answer
			s.cache.put(cacheKey, &cp)
		}
	}
	ct := res.ContentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
	return true
}

// relayStream proxies an SSE request to owner, piping bytes as they arrive.
// Returns false when the stream could not be opened (caller streams a local
// solve under fleet_local). A connection lost mid-relay just ends the
// response: the SSE contract's reconnect path (client redials with
// Last-Event-ID) is the retry, and by then this instance's health view — and
// so the routing decision — has caught up.
func (s *Server) relayStream(w http.ResponseWriter, r *http.Request, flusher http.Flusher, owner string) bool {
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	resp, err := s.fleet.ForwardStream(r.Context(), owner, pathAndQuery,
		r.Header.Get("Last-Event-ID"), telemetry.RequestID(r.Context()))
	if err != nil {
		if r.Context().Err() != nil {
			writeErr(w, r, http.StatusRequestTimeout, "%v", r.Context().Err())
			return true
		}
		s.log.Warn("fleet stream forward failed; streaming local solve",
			"owner", owner, "err", err)
		return false
	}
	defer resp.Body.Close()
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("Connection", "keep-alive")
	hdr.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away mid-relay
			}
			flusher.Flush()
		}
		if err != nil {
			return true
		}
	}
}

// stampFleetLocal marks resp as served outside the fleet's single-flight
// discipline: the owner was unreachable, a non-owner solved. The schedule
// itself may be optimal; the degradation records that the answer cost solver
// time the fleet should have deduplicated. An already-degraded response
// keeps its original code (the solver's story outranks the routing story)
// and gets the fleet context appended to its reason.
func (s *Server) stampFleetLocal(resp *api.SolveResponse, owner string) {
	s.fleet.NoteLocalFallback()
	reason := fmt.Sprintf("fleet owner %s unreachable; solved locally", owner)
	if resp.Degraded {
		if resp.DegradedReason != "" {
			reason = resp.DegradedReason + "; " + reason
		}
		resp.DegradedReason = reason
		return
	}
	resp.Degraded = true
	resp.DegradedCode = string(checkmate.DegradedFleetLocal)
	resp.DegradedReason = reason
	s.metrics.degraded.Inc()
	//lint:allow metriclabels resp.Method round-trips checkmate.Method, a closed vocabulary
	s.metrics.degradedBy.With(string(checkmate.DegradedFleetLocal), resp.Method).Inc()
}

// sweepKey is the rendezvous routing key of a sweep: the workload fingerprint
// plus method, with no budgets — every budget point of one workload lands on
// one owner, so consecutive points reuse that owner's warm-start state just
// like a local sweep would.
func sweepKey(wl *checkmate.Workload, method string) string {
	return "sweep/" + wl.Fingerprint().String() + "/" + method
}

// sweepForwardTimeout sizes a forwarded sweep's per-attempt timeout: the
// points execute at the owner with worker-count parallelism, so the wave
// count times the per-point limit, plus slack.
func sweepForwardTimeout(points, workers int, timeLimit time.Duration) time.Duration {
	if workers < 1 {
		workers = 1
	}
	waves := (points + workers - 1) / workers
	return time.Duration(waves) * timeLimit
}
