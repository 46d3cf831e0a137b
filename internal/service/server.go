// Package service implements the rematerialization-planning server: a
// long-lived HTTP/JSON API over the Checkmate solver stack.
//
// The paper's deployment model (Figure 2) is solve-once, run-forever: a
// schedule costs minutes of MILP time but amortizes over millions of
// training iterations. This package operationalizes that economics as a
// service — a two-tier schedule cache (sharded in-memory LRU in front of an
// optional persistent disk store, so restarts keep warm state) makes
// repeated solves O(1), a bounded worker pool with single-flight
// deduplication absorbs request bursts without redundant MILP work,
// cost-aware admission control sheds load by projected solver work rather
// than raw queue depth, and per-request contexts cancel solves whose
// clients have gone away.
//
// Endpoints:
//
//	POST /v1/solve        — one schedule for a named model or serialized graph
//	GET  /v1/solve/stream — the same solve as Server-Sent Events: live
//	                        incumbent/bound progress, terminal done frame
//	POST /v1/sweep        — one workload at several budgets (Figure 5 as a service)
//	GET  /v1/models       — the model-zoo names
//	GET  /v1/methods      — the solver methods, with descriptions
//	GET  /v1/solve/trace  — Chrome trace_event JSON for a recent solve
//	GET  /v1/stats        — cache/pool/request counters
//	GET  /metrics         — the same counters in Prometheus text format
//	GET  /healthz         — liveness
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/checkmate"
	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/service/api"
	"repro/internal/service/fleet"
	"repro/internal/service/store"
	"repro/internal/telemetry"
)

// Config tunes the server. The zero value selects sensible defaults.
type Config struct {
	// Workers is the solver-pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds queued solves before 503s (default 64).
	QueueCap int
	// CacheCap bounds the schedule cache entry count (default 256).
	CacheCap int
	// CacheShards splits the in-memory cache into independently locked LRU
	// shards by fingerprint prefix (default 8).
	CacheShards int
	// CacheDir, when set, enables the persistent second-tier schedule store:
	// every solved schedule is written through to disk, and restarts serve
	// previously solved workloads without re-running the solver.
	CacheDir string
	// StoreMaxBytes bounds the persistent store's on-disk size; the sweep
	// evicts oldest entries first (0 = unbounded).
	StoreMaxBytes int64
	// StoreMaxAge bounds persistent entries' age (0 = keep forever).
	StoreMaxAge time.Duration
	// StoreBreakerThreshold is the consecutive store-write-failure run that
	// opens the circuit breaker around the persistent store, degrading the
	// cache to memory-only until a background heal probe round-trips
	// (default 5). StoreBreakerBackoff and StoreBreakerMaxBackoff shape the
	// healer's jittered exponential probe schedule (defaults 1s and 2min).
	StoreBreakerThreshold  int
	StoreBreakerBackoff    time.Duration
	StoreBreakerMaxBackoff time.Duration
	// MaxOutstandingCost is the admission limit: a new solve is rejected
	// (503) when the summed calibrated cost estimate of unfinished solves
	// would exceed it. Cost units are roughly milliseconds of solver work.
	// 0 selects an automatic limit of Workers × 4 × MaxTimeLimit, so even
	// a single longest-legal solve claims at most a small fraction of the
	// budget and cannot starve cheap requests; negative disables
	// cost-based admission (queue depth still bounds).
	MaxOutstandingCost float64
	// SolveThreads is the parallel branch-and-bound worker count applied to
	// every optimal solve (0 or 1 = serial). Threads multiply within one
	// solve; Workers bounds how many solves run at once, so total solver
	// parallelism is Workers × SolveThreads — keep the product near the
	// core count.
	SolveThreads int
	// StreamHeartbeat is the SSE keepalive interval of /v1/solve/stream:
	// a comment frame is sent when no event has for this long (default
	// 15 s).
	StreamHeartbeat time.Duration
	// DefaultTimeLimit applies when a request names none (default 30 s).
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps any requested time limit (default 10 min).
	MaxTimeLimit time.Duration
	// MaxGraphNodes rejects serialized graphs above this node count
	// (default 4096) before any solver memory is committed.
	MaxGraphNodes int
	// FleetSelf and FleetPeers enable fleet mode: Self is this process's
	// advertised base URL, Peers lists every fleet member (self included or
	// not — it is filtered). Each SolveKey is rendezvous-hashed to one owner
	// and non-owners proxy solve-plane requests to it; see docs/fleet.md.
	// Empty FleetSelf disables fleet mode regardless of FleetPeers.
	FleetSelf  string
	FleetPeers []string
	// FleetProbeInterval / FleetProbeTimeout / FleetFailureThreshold tune
	// the peer failure detector (defaults 2s / 1s / 3; see fleet.Config).
	FleetProbeInterval    time.Duration
	FleetProbeTimeout     time.Duration
	FleetFailureThreshold int
	// RemoteStoreURL, when set, layers a shared remote schedule corpus
	// behind the local tier: misses consult the peer's /v1/store endpoints
	// (Server.StoreHandler, mounted on its admin listener) and solved
	// schedules are written through. Guarded by its own circuit breaker.
	// Requires CacheDir (the remote tier backs the local one, it does not
	// replace it). RemoteStoreTimeout bounds each transfer (default 2s).
	RemoteStoreURL     string
	RemoteStoreTimeout time.Duration
	// Logger receives structured operational diagnostics (default
	// slog.Default()). The server logs with component/key/shard attributes;
	// pass a handler at the level and format the deployment wants.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = 30 * time.Second
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = 10 * time.Minute
	}
	if c.MaxGraphNodes <= 0 {
		c.MaxGraphNodes = 4096
	}
	if c.MaxOutstandingCost == 0 {
		// Enough projected work to keep every worker busy through four
		// worst-case solves each. Sized from MaxTimeLimit — the largest
		// cost any single admitted flight can carry after its time-limit
		// clamp — so one long solve occupies at most 1/(4×Workers) of the
		// budget instead of tripping the limit for everything behind it.
		c.MaxOutstandingCost = float64(c.Workers) * 4 * float64(c.MaxTimeLimit.Milliseconds())
	}
	if c.MaxOutstandingCost < 0 {
		c.MaxOutstandingCost = 0 // disabled
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the planning service. Create with New, mount via Handler, and
// Close when done to drain the worker pool.
type Server struct {
	cfg   Config
	cache *scheduleCache
	// store is the persistent second tier behind the in-memory cache; nil
	// when no CacheDir is configured. Writes go through to it, in-memory
	// misses consult it before the solver.
	store store.Store
	pool  *pool
	calib *costCalibrator
	start time.Time
	log   *slog.Logger

	// metrics is the single source of truth for service counters: /metrics
	// renders it as Prometheus text, Stats() as the /v1/stats JSON view.
	metrics *serverMetrics
	// traces retains the span trees of recent solves for GET /v1/solve/trace.
	traces *traceStore

	// fleet is the membership/routing/forwarding layer when fleet mode is
	// configured (Config.FleetSelf); nil for a standalone server. Handlers
	// consult it after the cache tiers: a locally cached answer never
	// crosses the network.
	fleet *fleet.Fleet

	// wlMu guards wlMemo, a small cache of built zoo workloads keyed by
	// (model, batch, device, coarse segments). Workloads are read-only
	// during solves, so sharing one across concurrent requests is safe, and
	// memoizing keeps model construction + autodiff off the cache-hit path.
	wlMu   sync.Mutex
	wlMemo map[string]*checkmate.Workload

	// streamMu guards streams, the hubs of in-flight streaming solves:
	// every SSE watcher of one SolveKey attaches to the same hub (and so to
	// the same solve).
	streamMu sync.Mutex
	streams  map[string]*streamHub

	// draining is set by Shutdown: solve-plane endpoints answer 503 with a
	// Retry-After hint while in-flight work finishes.
	draining atomic.Bool
}

// New builds a Server from cfg. It fails only when a persistent store is
// requested (cfg.CacheDir) and cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newScheduleCache(cfg.CacheCap, cfg.CacheShards),
		pool:    newPool(cfg.Workers, cfg.QueueCap, cfg.MaxOutstandingCost),
		calib:   newCostCalibrator(),
		start:   time.Now(),
		log:     cfg.Logger.With("component", "service"),
		traces:  newTraceStore(traceStoreCap),
		wlMemo:  make(map[string]*checkmate.Workload),
		streams: make(map[string]*streamHub),
	}
	s.pool.log = cfg.Logger.With("component", "pool")
	if cfg.CacheDir != "" {
		st, err := store.OpenDisk(store.DiskOptions{
			Dir:      cfg.CacheDir,
			MaxBytes: cfg.StoreMaxBytes,
			MaxAge:   cfg.StoreMaxAge,
			Logger:   cfg.Logger,
		})
		if err != nil {
			s.pool.close()
			return nil, fmt.Errorf("service: opening schedule store: %w", err)
		}
		// The breaker makes a sick disk cost the serving path nothing: after
		// a run of write failures the cache degrades to memory-only and a
		// background healer probes the disk until it answers again.
		s.store = store.NewBreaker(st, store.BreakerOptions{
			Threshold:  cfg.StoreBreakerThreshold,
			Backoff:    cfg.StoreBreakerBackoff,
			MaxBackoff: cfg.StoreBreakerMaxBackoff,
			Logger:     cfg.Logger,
		})
	}
	if cfg.RemoteStoreURL != "" {
		if s.store == nil {
			s.pool.close()
			return nil, fmt.Errorf("service: RemoteStoreURL requires CacheDir (the remote corpus tiers behind a local store)")
		}
		remote, err := store.NewRemote(store.RemoteOptions{
			URL:     cfg.RemoteStoreURL,
			Timeout: cfg.RemoteStoreTimeout,
			Logger:  cfg.Logger,
		})
		if err != nil {
			s.pool.close()
			s.store.Close()
			return nil, fmt.Errorf("service: remote schedule store: %w", err)
		}
		// The remote tier gets its own breaker so a dead corpus server costs
		// one failure run, then quietly degrades the fleet to local-only
		// persistence until its healer round-trips.
		s.store = store.NewTiered(s.store, store.NewBreaker(remote, store.BreakerOptions{
			Threshold:  cfg.StoreBreakerThreshold,
			Backoff:    cfg.StoreBreakerBackoff,
			MaxBackoff: cfg.StoreBreakerMaxBackoff,
			Logger:     cfg.Logger,
		}))
	}
	if cfg.FleetSelf != "" {
		fl, err := fleet.New(fleet.Config{
			Self:             cfg.FleetSelf,
			Peers:            cfg.FleetPeers,
			ProbeInterval:    cfg.FleetProbeInterval,
			ProbeTimeout:     cfg.FleetProbeTimeout,
			FailureThreshold: cfg.FleetFailureThreshold,
			Logger:           cfg.Logger,
		})
		if err != nil {
			s.pool.close()
			if s.store != nil {
				s.store.Close()
			}
			return nil, fmt.Errorf("service: fleet: %w", err)
		}
		s.fleet = fl
	}
	// Last: the registry's func metrics close over the pool, cache,
	// calibrator, and store, so everything must exist first.
	s.metrics = newServerMetrics(s)
	return s, nil
}

// Shutdown gracefully stops the solve plane. New solve, sweep, and stream
// requests are refused with 503 + Retry-After; in-flight solves get until
// ctx's deadline to finish, after which their contexts are cancelled; and
// every still-open SSE stream receives a terminal done frame so no watcher
// hangs on a solve that will never complete. The read-only endpoints
// (/healthz, /v1/stats, /metrics) keep serving — call Shutdown before
// http.Server.Shutdown so in-flight HTTP requests end with real replies,
// then Close to release the store. Returns ctx's error when the drain
// deadline fired before all solves finished.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already shutting down
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				perr := telemetry.Recovered("service.shutdown", r)
				s.log.Error("pool drain panic contained", "err", perr, "stack", string(perr.Stack))
			}
		}()
		s.pool.close()
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every in-flight solve; the workers notice between
		// branch-and-bound nodes and return promptly.
		err = ctx.Err()
		s.pool.abort()
		<-done
	}
	// Belt and braces for streams: hubs normally publish their own terminal
	// frame when the solve returns (including the cancellation error above),
	// but any hub still registered now gets an explicit one — publish is a
	// no-op on hubs already closed.
	s.streamMu.Lock()
	hubs := make([]*streamHub, 0, len(s.streams))
	for _, h := range s.streams {
		hubs = append(hubs, h)
	}
	s.streamMu.Unlock()
	for _, h := range hubs {
		h.publish(api.StreamEventDone, api.StreamDone{
			Error:  "server is shutting down",
			Status: http.StatusServiceUnavailable,
		})
	}
	return err
}

// Close drains the worker pool and releases the persistent store. In-flight
// solves finish; queued flights whose waiters are gone are skipped.
func (s *Server) Close() {
	s.pool.close()
	if s.fleet != nil {
		s.fleet.Close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.log.Warn("closing schedule store failed", "err", err)
		}
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.count("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/models", s.count("models", s.handleModels))
	mux.HandleFunc("/v1/methods", s.count("methods", s.handleMethods))
	mux.HandleFunc("/v1/stats", s.count("stats", s.handleStats))
	mux.HandleFunc("/v1/solve", s.count("solve", s.handleSolve))
	mux.HandleFunc("/v1/solve/stream", s.count("solve_stream", s.handleSolveStream))
	mux.HandleFunc("/v1/sweep", s.count("sweep", s.handleSweep))
	mux.HandleFunc("/v1/sweep/stream", s.count("sweep_stream", s.handleSweepStream))
	mux.HandleFunc("/v1/solve/trace", s.count("solve_trace", s.handleSolveTrace))
	mux.HandleFunc("/metrics", s.count("metrics", s.handleMetrics))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr sends an api.ErrorResponse stamped with the request's ID so a
// client error can be correlated with the server's logs and metrics.
func writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: telemetry.RequestID(r.Context()),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := api.ModelsResponse{}
	for _, name := range checkmate.Models() {
		resp.Models = append(resp.Models, api.ModelInfo{Name: name})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMethods serves the solver-method registry: the legal values of a
// solve request's "method" field, straight from the checkmate package so the
// wire list can never drift from what Solve dispatches on.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	resp := api.MethodsResponse{}
	for _, m := range checkmate.Methods() {
		resp.Methods = append(resp.Methods, api.MethodInfo{
			Method:      string(m.Method),
			Description: m.Description,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service counters. It is a JSON view over the same
// metric objects /metrics renders: request counts come from the HTTP request
// counter vector, solver aggregates from the registry counters, and
// cache/pool/store numbers from the same sources their func metrics read.
func (s *Server) Stats() api.StatsResponse {
	m := s.metrics
	reqs := make(map[string]int64)
	m.httpRequests.Each(func(values []string, count int64) {
		reqs[values[0]] = count
	})
	shards := s.cache.stats()
	ct := s.cache.totals()
	ratio, samples := s.calib.snapshot()
	var nps float64
	if us := m.solverSolveMicros.Value(); us > 0 {
		nps = float64(m.solverNodes.Value()) / (float64(us) / 1e6)
	}
	var degradedByCode map[string]int64
	m.degradedBy.Each(func(values []string, count int64) {
		if degradedByCode == nil {
			degradedByCode = make(map[string]int64)
		}
		degradedByCode[values[0]] += count
	})
	resp := api.StatsResponse{
		Requests:       reqs,
		Solves:         m.solves.Value(),
		CacheHits:      ct.Hits,
		CacheMisses:    ct.Misses,
		CacheEvictions: ct.Evictions,
		CacheSize:      ct.Size,
		CacheCap:       s.cfg.CacheCap,
		CacheShards:    shards,
		Admission: api.AdmissionStats{
			MaxOutstandingCost: s.cfg.MaxOutstandingCost,
			OutstandingCost:    s.pool.outstandingCost(),
			EstimateRatio:      ratio,
			Samples:            samples,
			Rejected:           s.pool.rejected.Load(),
		},
		Solver: api.SolverStats{
			SimplexIters:       m.solverIters.Value(),
			DualIters:          m.solverDual.Value(),
			BoundFlips:         m.solverFlips.Value(),
			PricingUpdates:     m.solverPricing.Value(),
			Phase1Skipped:      m.solverP1Skip.Value(),
			WarmHits:           m.solverWarmHits.Value(),
			WarmMisses:         m.solverWarmMisses.Value(),
			StrongBranchProbes: m.solverProbes.Value(),
			ProbeIters:         m.solverProbeIters.Value(),
			PseudoReliable:     m.solverPseudoRel.Value(),
			EpsSolves:          m.solverEpsSolves.Value(),
			EpsWarmHits:        m.solverEpsWarm.Value(),
			Nodes:              m.solverNodes.Value(),
			NodesPerSec:        nps,
			Threads:            s.cfg.SolveThreads,
		},
		Degraded:     api.DegradedStats{Solves: m.degraded.Value(), ByCode: degradedByCode},
		Deduped:      m.deduped.Value(),
		Cancelled:    s.pool.cancelled.Load(),
		Errors:       m.errs.Value(),
		InFlight:     s.pool.active.Load(),
		QueueDepth:   s.pool.queueDepth(),
		Workers:      s.pool.workers,
		WorkerPanics: s.pool.panics.Load(),
		UptimeMS:     time.Since(s.start).Milliseconds(),
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		resp.Fleet = &fs
	}
	return resp
}

// workloadSpec is the model-or-graph half of solve and sweep requests.
type workloadSpec struct {
	model          string
	batch          int
	device         string
	coarseSegments int
	graph          *api.GraphSpec
}

// maxWorkloadMemo bounds the zoo-workload memo; the zoo is small, so the
// cap only matters if batch/device combinations proliferate.
const maxWorkloadMemo = 64

func (s *Server) buildWorkload(spec workloadSpec) (*checkmate.Workload, error) {
	switch {
	case spec.model != "" && spec.graph != nil:
		return nil, fmt.Errorf("exactly one of model and graph may be set")
	case spec.model != "":
		memoKey := fmt.Sprintf("%s\x00%d\x00%s\x00%d", spec.model, spec.batch, spec.device, spec.coarseSegments)
		s.wlMu.Lock()
		wl, ok := s.wlMemo[memoKey]
		s.wlMu.Unlock()
		if ok {
			return wl, nil
		}
		wl, err := checkmate.Load(spec.model, checkmate.Options{
			Batch:          spec.batch,
			Device:         spec.device,
			CoarseSegments: spec.coarseSegments,
		})
		if err != nil {
			return nil, err
		}
		s.wlMu.Lock()
		if len(s.wlMemo) >= maxWorkloadMemo {
			for k := range s.wlMemo {
				delete(s.wlMemo, k)
				break
			}
		}
		s.wlMemo[memoKey] = wl
		s.wlMu.Unlock()
		return wl, nil
	case spec.graph != nil:
		if len(spec.graph.Nodes) > s.cfg.MaxGraphNodes {
			return nil, fmt.Errorf("graph has %d nodes, limit is %d", len(spec.graph.Nodes), s.cfg.MaxGraphNodes)
		}
		g, err := spec.graph.Build()
		if err != nil {
			return nil, err
		}
		return checkmate.FromGraph(g, spec.graph.Overhead)
	default:
		return nil, fmt.Errorf("one of model or graph is required")
	}
}

// solveParams are the normalized solver knobs for one budget point.
type solveParams struct {
	budget int64
	// method is the requested solver method; Auto stays Auto here (the
	// checkmate router resolves it, and SolveKeyFor keys on the resolution
	// so identical requests cache identically either way).
	method checkmate.Method
	opt    checkmate.SolveOptions
}

func (s *Server) solveParamsFrom(method string, budget, timeLimitMS int64, relGap float64) (solveParams, error) {
	p := solveParams{budget: budget, method: checkmate.Method(method)}
	if !checkmate.ValidMethod(p.method) {
		return p, fmt.Errorf("unknown method %q (valid: %s)", method, strings.Join(checkmate.MethodNames(), ", "))
	}
	if budget <= 0 {
		return p, fmt.Errorf("budget must be positive, got %d", budget)
	}
	tl := s.cfg.DefaultTimeLimit
	if timeLimitMS > 0 {
		tl = time.Duration(timeLimitMS) * time.Millisecond
	}
	if tl > s.cfg.MaxTimeLimit {
		tl = s.cfg.MaxTimeLimit
	}
	p.opt = checkmate.SolveOptions{TimeLimit: tl, RelGap: relGap, Threads: s.cfg.SolveThreads}
	return p, nil
}

// solveKeyed resolves one (workload, params) instance through the two cache
// tiers (in-memory, then persistent store) and, on miss, the worker pool
// under cost-aware admission. It is the shared engine of /v1/solve, each
// /v1/sweep point, and /v1/solve/stream: every solver run forwards its
// progress events to the stream hub watching its SolveKey (if any — the
// lookup is per event, so watchers attaching mid-solve still see the rest
// of the trajectory). Cache hits bypass the solver, so watchers see no
// events for them. key must be wl.SolveKeyFor(p.method, p.budget, p.opt):
// callers compute it once per request or sweep point and reuse it for
// routing and stream-hub naming.
func (s *Server) solveKeyed(ctx context.Context, wl *checkmate.Workload, p solveParams, key graph.Fingerprint, noCache bool) (*api.SolveResponse, error) {
	// Hit/miss accounting lives in the cache tiers; NoCache requests never
	// consult them, so they skew no counter.
	if !noCache {
		if resp, ok := s.cachedResponse(key); ok {
			return resp, nil
		}
	}
	// Admission: the raw estimate orders requests by expense; the calibrator
	// scales it by the observed actual/estimate ratio so the configured
	// limit tracks real solver milliseconds. The request's time limit is
	// re-applied after calibration — it caps real solver work no matter
	// what ratio was learned from other requests, so the admission cost
	// must respect the same ceiling.
	rawEstimate := wl.EstimateSolveCostFor(p.method, p.budget, p.opt)
	cost := s.calib.calibrated(rawEstimate)
	if lim := float64(p.opt.TimeLimit.Milliseconds()); lim > 0 && cost > lim {
		cost = lim
	}
	// The flight runs on a detached pool context (waiters may come and go);
	// carry the submitting request's ID over so the solve's logs and trace
	// stay correlated with the HTTP request that triggered it.
	rid := telemetry.RequestID(ctx)
	val, shared, err := s.pool.submit(ctx, key.String(), cost, func(fctx context.Context) (any, error) {
		if rid != "" {
			fctx = telemetry.WithRequestID(fctx, rid)
		}
		start := time.Now()
		resp, err := s.runSolve(fctx, wl, p, key)
		if err != nil {
			// Calibrate on limit-type failures too: they consumed their full
			// time budget. Other failures are excluded — a cancelled solve's
			// elapsed time measures client patience, and a fast infeasible
			// rejection would feed a near-zero ratio that collapses the EWMA
			// and quietly loosens admission control.
			if errors.Is(err, checkmate.ErrSolveLimit) || errors.Is(err, context.DeadlineExceeded) {
				s.calib.observe(rawEstimate, float64(time.Since(start).Microseconds())/1e3)
			}
			return nil, err
		}
		s.calib.observe(rawEstimate, float64(time.Since(start).Microseconds())/1e3)
		s.metrics.solves.Inc()
		s.cache.put(key, resp)
		s.writeStored(key, resp)
		return resp, nil
	})
	if shared {
		s.metrics.deduped.Inc()
	}
	if err != nil {
		// Count each failed solve once, not once per deduped waiter.
		if !shared && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.metrics.errs.Inc()
		}
		return nil, err
	}
	cp := *val.(*api.SolveResponse)
	cp.Cached = shared
	return &cp, nil
}

// loadStored fetches a schedule from the persistent tier. Store defects
// (missing, corrupt) are misses by contract; a payload that fails to decode
// here is counted and skipped, never an error — the solver is the fallback.
func (s *Server) loadStored(key graph.Fingerprint) (*api.SolveResponse, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		s.log.Warn("stored schedule undecodable, re-solving", "key", key.Short(), "err", err)
		return nil, false
	}
	resp.Cached = false // per-request flags are stamped by the caller
	return &resp, true
}

// writeStored persists a solved schedule to the second tier. Persistence is
// best-effort: the schedule is already in memory and on its way to the
// client, so a failed write is logged, counted by the store, and otherwise
// ignored.
func (s *Server) writeStored(key graph.Fingerprint, resp *api.SolveResponse) {
	if s.store == nil {
		return
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		s.log.Warn("encoding schedule for the store failed", "key", key.Short(), "err", err)
		return
	}
	if err := s.store.Put(key, payload); err != nil {
		s.log.Warn("persisting schedule failed", "key", key.Short(), "err", err)
	}
}

// runSolve executes the actual solver call through the unified
// checkmate.Solve entry point and serializes the result. Progress events
// flow to the stream hub watching this SolveKey, if one exists when each
// event fires (Request.TimeLimit bounds both methods — the approx ε-search
// included).
func (s *Server) runSolve(ctx context.Context, wl *checkmate.Workload, p solveParams, key graph.Fingerprint) (*api.SolveResponse, error) {
	start := time.Now()
	// Record a span tree for this solve and retain it (success or failure —
	// a timed-out solve's trace is the one worth reading) for
	// GET /v1/solve/trace?key=<fingerprint>.
	tr := telemetry.NewTrace()
	ctx = telemetry.WithTrace(ctx, tr)
	defer s.traces.put(key.String(), tr)
	sched, err := checkmate.Solve(ctx, checkmate.Request{
		Workload:  wl,
		Method:    p.method,
		Budget:    p.budget,
		TimeLimit: p.opt.TimeLimit,
		RelGap:    p.opt.RelGap,
		Threads:   p.opt.Threads,
		Observer:  s.keyObserver(key, wl.Graph.Len()),
	})
	if err != nil {
		return nil, err
	}
	ctr := sched.Solver
	m := s.metrics
	m.solverIters.Add(ctr.SimplexIters)
	m.solverDual.Add(ctr.DualIters)
	m.solverFlips.Add(ctr.BoundFlips)
	m.solverPricing.Add(ctr.PricingUpdates)
	m.solverEpsSolves.Add(ctr.EpsSolves)
	m.solverEpsWarm.Add(ctr.EpsWarmHits)
	// Node-count and warm-start counters only make sense for the
	// branch-and-bound methods (optimal and interval both report them);
	// sched.Method is the resolved method, so Auto routing is accounted
	// under whatever actually ran.
	if sched.Method != checkmate.Approx && sched.Method != checkmate.Baseline {
		m.solverP1Skip.Add(ctr.Phase1Skipped)
		m.solverWarmHits.Add(ctr.WarmHits)
		m.solverWarmMisses.Add(ctr.WarmMisses)
		m.solverProbes.Add(ctr.StrongBranchProbes)
		m.solverProbeIters.Add(ctr.ProbeIters)
		m.solverPseudoRel.Add(ctr.PseudoReliable)
		m.solverNodes.Add(int64(sched.Nodes))
		m.solverSolveMicros.Add(sched.SolveTime.Microseconds())
	}
	if sched.Degraded {
		code := sched.DegradedCode
		if code == "" {
			code = checkmate.DegradedError
		}
		s.metrics.degraded.Inc()
		s.metrics.degradedBy.With(string(code), string(sched.Method)).Inc()
		s.log.Warn("schedule served degraded", "key", key.Short(),
			"method", sched.Method, "code", code, "reason", sched.DegradedReason)
	}
	var planBuf bytes.Buffer
	if err := sched.Plan.WriteJSON(&planBuf); err != nil {
		return nil, fmt.Errorf("serializing plan: %w", err)
	}
	return &api.SolveResponse{
		Fingerprint:    key.String(),
		Method:         string(sched.Method),
		Optimal:        sched.Optimal,
		Cost:           sched.Cost,
		IdealCost:      sched.IdealCost,
		Overhead:       sched.Overhead(),
		PeakBytes:      sched.PeakBytes,
		Budget:         p.budget,
		GraphNodes:     wl.Graph.Len(),
		SolveMS:        float64(time.Since(start).Microseconds()) / 1e3,
		Degraded:       sched.Degraded,
		DegradedCode:   string(sched.DegradedCode),
		DegradedReason: sched.DegradedReason,
		Plan:           json.RawMessage(bytes.TrimSpace(planBuf.Bytes())),
	}, nil
}

// solveStatus maps a solve error onto an HTTP status.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, checkmate.ErrInfeasible), errors.Is(err, approx.ErrNoFeasibleRounding):
		// Retrying the same request cannot succeed.
		return http.StatusUnprocessableEntity
	case errors.Is(err, checkmate.ErrSolveLimit), errors.Is(err, context.DeadlineExceeded):
		// The solver ran out of time; a retry with looser limits may work.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds suggests a Retry-After for 503 responses: the projected
// outstanding solver work spread across the workers (cost units approximate
// solver milliseconds), clamped to [1, 60] seconds. While draining for
// shutdown the instance will never accept the retry, so the hint is the
// minimum — the client should go elsewhere immediately.
func (s *Server) retryAfterSeconds() int {
	if s.draining.Load() {
		return 1
	}
	secs := int(math.Ceil(s.pool.outstandingCost() / float64(s.pool.workers) / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeSolveErr maps a solve error onto its HTTP reply. Load-shedding 503s
// carry a Retry-After hint so well-behaved clients back off for roughly the
// backlog's duration instead of hammering an overloaded instance.
func (s *Server) writeSolveErr(w http.ResponseWriter, r *http.Request, err error) {
	status := solveStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeErr(w, r, status, "%v", err)
}

// rejectIfDraining answers solve-plane requests arriving during shutdown
// with 503 + Retry-After and reports whether it did.
func (s *Server) rejectIfDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeErr(w, r, http.StatusServiceUnavailable, "server is shutting down")
	return true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectIfDraining(w, r) {
		return
	}
	var req api.SolveRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	p, err := s.solveParamsFrom(req.Method, req.Budget, req.TimeLimitMS, req.RelGap)
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
	if owner, ok := s.forwardTarget(r, key.String()); ok {
		// A locally cached answer beats the network no matter who owns the
		// key; the tiers are only consulted on the forwarding path so the
		// standalone hit/miss accounting in solveKeyed stays untouched.
		if !req.NoCache {
			if resp, ok := s.cachedResponse(key); ok {
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
		if body, merr := json.Marshal(req); merr == nil {
			if s.relaySolve(w, r, owner, "/v1/solve", body, p.opt.TimeLimit, key) {
				return
			}
		}
		// Owner unreachable: availability beats dedup. Solve here, stamped.
		resp, err := s.solveKeyed(r.Context(), wl, p, key, req.NoCache)
		if err != nil {
			s.writeSolveErr(w, r, err)
			return
		}
		s.stampFleetLocal(resp, owner)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp, err := s.solveKeyed(r.Context(), wl, p, key, req.NoCache)
	if err != nil {
		s.writeSolveErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepPlan is a fully validated sweep: the workload, its budget points in
// ascending order, and each point's solve parameters. Both the blocking
// /v1/sweep handler and the streaming /v1/sweep/stream handler build one,
// then hand it to runSweep.
type sweepPlan struct {
	wl     *checkmate.Workload
	method string
	params []solveParams
	resp   api.SweepResponse // envelope (MinBudget, CheckpointAllPeak); Points filled by runSweep
}

// solveKeys returns each point's SolveKey, params[i]'s at index i. A sweep
// computes them once, when it is about to run here rather than be relayed
// to its fleet owner.
func (p *sweepPlan) solveKeys() []graph.Fingerprint {
	keys := make([]graph.Fingerprint, len(p.params))
	for i, sp := range p.params {
		keys[i] = p.wl.SolveKeyFor(sp.method, sp.budget, sp.opt)
	}
	return keys
}

// buildSweepPlan validates req end to end — workload, budget list, every
// point's solve parameters — before any work is enqueued, so a bad budget
// rejects the sweep cleanly instead of orphaning queued solves. On error the
// returned int is the HTTP status to reject with.
func (s *Server) buildSweepPlan(req api.SweepRequest) (*sweepPlan, int, error) {
	wl, err := s.buildWorkload(workloadSpec{
		model: req.Model, batch: req.Batch, device: req.Device,
		coarseSegments: req.CoarseSegments, graph: req.Graph,
	})
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("building workload: %v", err)
	}
	plan := &sweepPlan{
		wl:     wl,
		method: req.Method,
		resp: api.SweepResponse{
			MinBudget:         wl.MinBudget(),
			CheckpointAllPeak: wl.CheckpointAllPeak(),
		},
	}
	budgets := append([]int64(nil), req.Budgets...)
	if len(budgets) == 0 {
		points := req.Points
		if points <= 0 {
			points = 5
		}
		if points > 64 {
			points = 64
		}
		lo, hi := plan.resp.MinBudget, plan.resp.CheckpointAllPeak
		for i := 0; i < points; i++ {
			budgets = append(budgets, lo+(hi-lo)*int64(i+1)/int64(points))
		}
	}
	if len(budgets) > 256 {
		return nil, http.StatusBadRequest, fmt.Errorf("sweep of %d budgets exceeds the 256-point limit", len(budgets))
	}
	sort.Slice(budgets, func(i, j int) bool { return budgets[i] < budgets[j] })
	plan.params = make([]solveParams, len(budgets))
	for i, budget := range budgets {
		p, err := s.solveParamsFrom(plan.method, budget, req.TimeLimitMS, req.RelGap)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("budget %d: %v", budget, err)
		}
		plan.params[i] = p
	}
	return plan, 0, nil
}

// runSweep executes every point of plan, keys[i] being point i's SolveKey
// (plan.solveKeys), and returns the completed response.
// Each finished point is also handed to onPoint (when non-nil) the moment it
// lands — completion order, not budget order — which is how the streaming
// endpoint narrates progress. onPoint calls are serialized.
//
// Every point goes through the shared cache+pool path. Submissions are
// throttled to the worker count: pool.submit's enqueue is non-blocking, so
// firing all points at once would overflow the bounded queue and fail most
// of a large sweep with spurious queue-full errors.
func (s *Server) runSweep(ctx context.Context, plan *sweepPlan, keys []graph.Fingerprint, onPoint func(i int, pt api.SweepPoint)) api.SweepResponse {
	resp := plan.resp
	resp.Points = make([]api.SweepPoint, len(plan.params))
	var mu sync.Mutex // serializes onPoint across point goroutines
	record := func(i int, pt api.SweepPoint) {
		resp.Points[i] = pt
		if onPoint != nil {
			mu.Lock()
			onPoint(i, pt)
			mu.Unlock()
		}
	}
	sem := make(chan struct{}, s.pool.workers)
	var wg sync.WaitGroup
	for i, p := range plan.params {
		wg.Add(1)
		go func(i int, p solveParams) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					perr := telemetry.Recovered("service.sweep", rec)
					s.metrics.handlerPanics.Inc()
					s.log.Error("sweep point panic contained", "budget", p.budget,
						"err", perr, "stack", string(perr.Stack))
					record(i, api.SweepPoint{Budget: p.budget, Error: perr.Error()})
				}
			}()
			pt := api.SweepPoint{Budget: p.budget}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				pt.Error = ctx.Err().Error()
				record(i, pt)
				return
			}
			res, err := s.solveKeyed(ctx, plan.wl, p, keys[i], false)
			if err != nil {
				pt.Error = err.Error()
			} else {
				pt.Feasible = true
				pt.Cached = res.Cached
				pt.Optimal = res.Optimal
				pt.Degraded = res.Degraded
				pt.Overhead = res.Overhead
				pt.PeakBytes = res.PeakBytes
				pt.Fingerprint = res.Fingerprint
			}
			record(i, pt)
		}(i, p)
	}
	wg.Wait()
	return resp
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectIfDraining(w, r) {
		return
	}
	var req api.SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	plan, status, err := s.buildSweepPlan(req)
	if err != nil {
		writeErr(w, r, status, "%v", err)
		return
	}

	// Fleet routing: a sweep is keyed by workload+method (not budgets), so
	// every budget point of one workload lands on one owner and consecutive
	// points reuse its warm-start state. Owner down → run the sweep locally;
	// SweepPoint carries no degraded-code field, so the fallback is counted
	// (fleet local_fallbacks) rather than stamped per point.
	if owner, ok := s.forwardTarget(r, sweepKey(plan.wl, plan.method)); ok {
		if body, merr := json.Marshal(req); merr == nil {
			timeout := sweepForwardTimeout(len(plan.params), s.pool.workers, plan.params[0].opt.TimeLimit)
			if s.relaySolve(w, r, owner, "/v1/sweep", body, timeout, graph.Fingerprint{}) {
				return
			}
		}
		s.fleet.NoteLocalFallback()
	}

	resp := s.runSweep(r.Context(), plan, plan.solveKeys(), nil)
	if err := r.Context().Err(); err != nil {
		writeErr(w, r, http.StatusRequestTimeout, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
