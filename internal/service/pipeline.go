package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/checkmate"
	"repro/internal/graph"
	"repro/internal/service/api"
	"repro/internal/service/fleet"
	"repro/internal/telemetry"
)

// job is one decoded solve-plane request: a single solve (solveJob) or a
// sweep (sweepJob). handleJob routes it once and, unless it is relayed,
// runs it here.
type job interface {
	// routeKey is the key the fleet's rendezvous hash assigns an owner by.
	routeKey() string
	// relay returns what a relayed POST forwards: the decoded request, to
	// be re-encoded, the timeout of each forwarding attempt, and the
	// SolveKey under which the owner's 200 is kept in memory (zero for a
	// sweep, whose answer is not one schedule).
	relay() (req any, timeout time.Duration, cacheKey graph.Fingerprint)
	// cachedHere looks the answer up in the local tiers, before a relay. A
	// sweep has no single answer to look up.
	cachedHere() bool
	// hubKey names the stream hub that identical streams share.
	hubKey() string
	// run does the work here. publish receives progress frames; owner is the
	// fleet owner that could not answer, "" when the job is this process's
	// own.
	run(ctx context.Context, publish func(event string, payload any), owner string) api.StreamDone
}

// handleJob serves the four solve-plane endpoints: POST /v1/solve and
// POST /v1/sweep answer one JSON body, GET /v1/solve/stream and
// GET /v1/sweep/stream the same answer as Server-Sent Events. A stream takes
// the request as query parameters (the graph as a JSON-encoded "graph"
// parameter, sweep budgets as a comma-separated list) and ends with a done
// frame carrying exactly what the POST returns. Watchers of one solve or of
// one exact sweep share a hub and one run, and Last-Event-ID resumes a
// dropped connection against the hub's event history.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	stream := strings.HasSuffix(r.URL.Path, "/stream")
	method := http.MethodPost
	if stream {
		method = http.MethodGet
	}
	if r.Method != method {
		writeErr(w, r, http.StatusMethodNotAllowed, "%s required", method)
		return
	}
	if s.draining.Load() {
		s.answer(w, r, api.StreamDone{Error: "server is shutting down", Status: http.StatusServiceUnavailable})
		return
	}
	flusher, ok := w.(http.Flusher)
	if stream && !ok {
		writeErr(w, r, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	j, err := s.decodeJob(r, stream)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	owner, relayed := s.route(w, r, j, stream, flusher)
	if relayed {
		return
	}
	if !stream {
		s.answer(w, r, j.run(r.Context(), func(string, any) {}, owner))
		return
	}
	// The hub's run outlives this watcher, on a detached context; carry the
	// initiating request's ID into it so the run, and the done frame every
	// watcher receives, stay correlated with this request.
	rid := telemetry.RequestID(r.Context())
	hub, release := s.attachStream(j.hubKey(), func(ctx context.Context, h *streamHub) {
		if rid != "" {
			ctx = telemetry.WithRequestID(ctx, rid)
		}
		done := j.run(ctx, h.publish, owner)
		done.RequestID = rid
		h.publish(api.StreamEventDone, done)
		s.removeStream(h)
	})
	defer release()
	s.serveSSE(w, r, flusher, hub)
}

// decodeJob reads a solve-plane request, from a POST's JSON body or a
// stream's query, and validates it end to end before any work is queued.
func (s *Server) decodeJob(r *http.Request, stream bool) (job, error) {
	decode := func(dst any) error {
		if stream {
			return api.DecodeQuery(r.URL.Query(), dst)
		}
		if err := decodeStrict(r.Body, dst); err != nil {
			return fmt.Errorf("decoding request: %v", err)
		}
		return nil
	}
	if strings.HasPrefix(r.URL.Path, "/v1/sweep") {
		j := &sweepJob{s: s}
		if err := decode(&j.req); err != nil {
			return nil, err
		}
		if err := s.planSweep(j); err != nil {
			return nil, err
		}
		return j, nil
	}
	j := &solveJob{s: s}
	if err := decode(&j.req); err != nil {
		return nil, err
	}
	req := &j.req
	p, err := s.solveParamsFrom(req.Method, req.Budget, req.TimeLimitMS, req.RelGap)
	if err != nil {
		return nil, err
	}
	wl, err := s.buildWorkload(workloadSpec{
		model: req.Model, batch: req.Batch, device: req.Device,
		coarseSegments: req.CoarseSegments, graph: req.Graph,
	})
	if err != nil {
		return nil, fmt.Errorf("building workload: %v", err)
	}
	j.wl, j.p, j.key = wl, p, wl.SolveKeyFor(p.method, p.budget, p.opt)
	return j, nil
}

// route decides, once per request, whether j is relayed to its fleet owner
// or runs here, and reports whether a relay answered the client. A request
// is relayed when fleet mode is on, it is not itself a relayed hop (the
// one-hop bound that makes routing loops impossible under divergent health
// views), its owner is a healthy peer, and the local tiers hold no answer
// for it: a locally cached answer never crosses the network. When the relay
// gets no definitive answer, owner names the peer that failed and j runs
// here under the fleet_local fallback; otherwise owner is "".
func (s *Server) route(w http.ResponseWriter, r *http.Request, j job, stream bool, flusher http.Flusher) (owner string, relayed bool) {
	if s.fleet == nil || r.Header.Get(fleet.HopHeader) != "" {
		return "", false
	}
	owner, self := s.fleet.Owner(j.routeKey())
	if self || j.cachedHere() {
		return "", false
	}
	if stream {
		return owner, s.relayStream(w, r, flusher, owner)
	}
	req, timeout, cacheKey := j.relay()
	body, err := json.Marshal(req)
	if err != nil {
		return owner, false
	}
	return owner, s.relaySolve(w, r, owner, r.URL.Path, body, timeout, cacheKey)
}

// answer writes a blocking request's done frame as its HTTP reply.
// Load-shedding 503s carry a Retry-After hint so well-behaved clients back
// off for roughly the backlog's duration instead of hammering an overloaded
// instance.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, done api.StreamDone) {
	switch {
	case done.Error != "":
		if done.Status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeErr(w, r, done.Status, "%s", done.Error)
	case done.Sweep != nil:
		writeJSON(w, http.StatusOK, done.Sweep)
	default:
		writeJSON(w, http.StatusOK, done.Result)
	}
}

// fallbackFrame opens the stream of a job that runs here because its fleet
// owner could not answer; doing names the local work.
func fallbackFrame(owner, doing string) api.StreamDegraded {
	return api.StreamDegraded{From: "fleet:" + owner, To: "local", Reason: "fleet owner unreachable; " + doing + " locally"}
}

// solveJob is one validated solve: /v1/solve or /v1/solve/stream.
type solveJob struct {
	s   *Server
	req api.SolveRequest
	wl  *checkmate.Workload
	p   solveParams
	key graph.Fingerprint
	// looked records that cachedHere consulted the local tiers, and hit is
	// what it found there, so run does not look again.
	looked bool
	hit    *api.SolveResponse
}

func (j *solveJob) routeKey() string { return j.key.String() }

func (j *solveJob) relay() (any, time.Duration, graph.Fingerprint) {
	return j.req, j.p.opt.TimeLimit, j.key
}

func (j *solveJob) cachedHere() bool {
	if j.req.NoCache {
		return false
	}
	j.looked = true
	j.hit, _ = j.s.cachedResponse(j.key)
	return j.hit != nil
}

func (j *solveJob) hubKey() string { return j.key.String() }

func (j *solveJob) run(ctx context.Context, publish func(string, any), owner string) api.StreamDone {
	if owner != "" {
		publish(api.StreamEventDegraded, fallbackFrame(owner, "solving"))
	}
	resp := j.hit
	if resp == nil {
		var err error
		if resp, err = j.s.solveKeyed(ctx, j.wl, j.p, j.key, j.req.NoCache || j.looked); err != nil {
			return api.StreamDone{Error: err.Error(), Status: solveStatus(err)}
		}
	}
	if owner != "" {
		j.s.stampFleetLocal(resp, owner)
	}
	return api.StreamDone{Result: resp}
}

// routeKey routes a sweep by workload and method, with no budgets: every
// budget point of one workload lands on one owner, so consecutive points
// reuse that owner's warm-start state just like a local sweep would.
func (j *sweepJob) routeKey() string {
	return "sweep/" + j.wl.Fingerprint().String() + "/" + j.req.Method
}

// relay sizes a forwarded sweep's per-attempt timeout: the points run at
// the owner with worker-count parallelism, so the wave count times the
// per-point limit.
func (j *sweepJob) relay() (any, time.Duration, graph.Fingerprint) {
	waves := (len(j.params) + j.s.pool.workers - 1) / j.s.pool.workers
	return j.req, time.Duration(waves) * j.params[0].opt.TimeLimit, graph.Fingerprint{}
}

func (j *sweepJob) cachedHere() bool { return false }

// hubKey names the hub of one exact sweep. It hashes every point's
// SolveKey, so two sweeps share a hub, and one run, only when they agree on
// the workload, method, budget list and solve options. The "sweep/"
// namespace keeps hub keys disjoint from solve-stream hubs (bare SolveKey
// strings) and from receiving keyObserver solver events.
func (j *sweepJob) hubKey() string {
	h := sha256.New()
	io.WriteString(h, "checkmate/sweep-stream/v1")
	io.WriteString(h, "\x00"+j.wl.Fingerprint().String())
	io.WriteString(h, "\x00"+j.req.Method)
	for _, key := range j.solveKeys() {
		io.WriteString(h, "\x00"+key.String())
	}
	return "sweep/" + hex.EncodeToString(h.Sum(nil)[:16])
}

// run sweeps every point here, publishing one sweep_point frame per point
// as it lands. A blocking sweep's fleet fallback is counted, not stamped:
// SweepPoint has no degraded code.
func (j *sweepJob) run(ctx context.Context, publish func(string, any), owner string) api.StreamDone {
	if owner != "" {
		j.s.fleet.NoteLocalFallback()
		publish(api.StreamEventDegraded, fallbackFrame(owner, "sweeping"))
	}
	total := len(j.params)
	resp := j.s.runSweep(ctx, j, j.solveKeys(), func(i int, pt api.SweepPoint) {
		publish(api.StreamEventSweepPoint, api.StreamSweepPoint{Index: i, Total: total, Point: pt})
	})
	done := api.StreamDone{Sweep: &resp}
	if err := ctx.Err(); err != nil {
		// The client left mid-sweep (the last watcher, for a stream); whoever
		// replays a stream's tail still learns the sweep did not finish.
		done.Error = err.Error()
		done.Status = http.StatusRequestTimeout
	}
	return done
}
