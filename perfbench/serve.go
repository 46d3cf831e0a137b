package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/checkmate"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/service/client"
	"repro/internal/service/store"
	"repro/internal/telemetry"
)

// The serve workloads are closed loops: serveConns clients each send their
// next request when the previous one has been answered, against a server
// with serveWorkers solver workers, all in this process. Two of each match
// the two cores the benchmark is sized for.
const (
	serveConns   = 2
	serveWorkers = 2
	serveLimit   = 5 * time.Second
	// serveSlices splits a window into equal slices; throughput and latency
	// percentiles are medians over slices, so one stalled slice does not
	// move a run's figures.
	serveSlices = 10
	// captureCap bounds the answers kept for the isolated layer timings.
	captureCap = 64
)

// serveSpec defines one serve workload: its key space and how the request
// streams draw from it.
type serveSpec struct {
	name   string
	models []string
	// Each model has budgets budgets, evenly spaced from fracLo to fracHi
	// of the way from its MinBudget to its CheckpointAllPeak.
	budgets        int
	fracLo, fracHi float64
	// zipf draws keys zipf-distributed over a seeded permutation of the key
	// space; otherwise uniformly.
	zipf bool
	// store gives the server a disk store in a fresh temporary directory.
	store bool
	// presolve solves every key during set-up, so the timed window answers
	// everything from the cache.
	presolve  bool
	setupReps int
}

// hotSpec: 20 keys, every model at 50–80% budgets, all solved during
// set-up, so the timed window runs no solver. It loads HTTP decode, the
// workload memo, SolveKeyFor, the sharded cache, JSON and SSE encoding and
// client decode.
func hotSpec() serveSpec {
	return serveSpec{
		name:      "serve-hot",
		models:    zooModels,
		budgets:   4,
		fracLo:    0.5,
		fracHi:    0.8,
		presolve:  true,
		setupReps: 3,
	}
}

// coldSpec: 400,000 keys in the upper half of each budget range, where
// interval solves take milliseconds, drawn zipf(1.05) against a 256-entry
// cache and a disk store that starts empty. About two thirds of the lookups
// miss memory, so the window inserts and evicts cache entries, writes every
// fresh schedule to the store and reads evicted ones back. The key space is large
// enough that the zipf tail keeps supplying unseen keys for a whole window:
// the share of fresh solves drifts only slowly, so a faster run does not
// also get a warmer cache.
func coldSpec() serveSpec {
	return serveSpec{
		name:      "serve-cold",
		models:    []string{"vgg16", "mobilenet", "unet", "transformer"},
		budgets:   100_000,
		fracLo:    0.5,
		fracHi:    1,
		zipf:      true,
		store:     true,
		setupReps: 5,
	}
}

type serveKey struct {
	model  string
	budget int64
}

// keySpace is a serve workload's keys: every model at every budget
// position, model-major. Keys are computed on demand, so a large space costs
// no memory. The locally loaded workloads also serve the plan check.
type keySpace struct {
	spec   serveSpec
	wls    map[string]*checkmate.Workload
	lo, hi map[string]int64 // MinBudget and CheckpointAllPeak per model
}

// buildKeySpace builds the key space; buildMS receives the time spent
// building the models alone.
func buildKeySpace(spec serveSpec) (ks *keySpace, buildMS float64, err error) {
	ks = &keySpace{spec: spec, lo: map[string]int64{}, hi: map[string]int64{}}
	if ks.wls, buildMS, err = loadModels(spec.models); err != nil {
		return nil, 0, err
	}
	for m, wl := range ks.wls {
		ks.lo[m], ks.hi[m] = wl.MinBudget(), wl.CheckpointAllPeak()
	}
	return ks, buildMS, nil
}

func (ks *keySpace) len() int { return len(ks.spec.models) * ks.spec.budgets }

func (ks *keySpace) key(i int) serveKey {
	sp := ks.spec
	m := sp.models[i/sp.budgets]
	frac := sp.fracLo + (sp.fracHi-sp.fracLo)*float64(i%sp.budgets)/float64(sp.budgets-1)
	return serveKey{m, budgetAt(ks.lo[m], ks.hi[m], frac)}
}

// sweepKeys returns the three consecutive budgets of key i's model that a
// sweep request for i covers, starting at i where there is room.
func (ks *keySpace) sweepKeys(i int) []int {
	pos := i % ks.spec.budgets
	first := i - pos + min(pos, ks.spec.budgets-3)
	return []int{first, first + 1, first + 2}
}

type opKind int

const (
	opSolve opKind = iota
	opStream
	opSweep
)

var opNames = []string{"solve", "stream", "sweep"}

type request struct {
	kind opKind
	key  int
}

// requestGen draws one client's request stream: 70% solve, 15% SSE stream,
// 15% three-point sweep. The same seed and client index always give the same
// stream.
type requestGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	n    int
}

func newRequestGen(seed int64, conn, nkeys int, zipf bool) *requestGen {
	g := &requestGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(conn))), n: nkeys}
	if zipf {
		// One permutation per seed, shared by every client, so the hottest
		// keys are the same for all of them and mix models and budgets.
		g.perm = rand.New(rand.NewSource(seed)).Perm(nkeys)
		g.zipf = rand.NewZipf(g.rng, 1.05, 1, uint64(nkeys-1))
	}
	return g
}

func (g *requestGen) next() request {
	var r request
	switch p := g.rng.Intn(100); {
	case p < 70:
		r.kind = opSolve
	case p < 85:
		r.kind = opStream
	default:
		r.kind = opSweep
	}
	if g.zipf != nil {
		r.key = g.perm[g.zipf.Uint64()]
	} else {
		r.key = g.rng.Intn(g.n)
	}
	return r
}

// planChecker verifies every answer's plan against the locally built graph.
// A plan is simulated the first time it is seen for a key; later answers for
// the key must carry byte-identical plan bytes (compared by hash) and the
// same peak, or they are simulated in turn.
type planChecker struct {
	ks   *keySpace
	seed maphash.Seed

	mu       sync.Mutex
	verified map[serveKey]verifiedPlan
	captured []capturedAnswer
}

// capturedAnswer is an answer kept for the isolated layer timings.
type capturedAnswer struct {
	key  serveKey
	resp *api.SolveResponse
}

type verifiedPlan struct {
	hash uint64
	peak int64
}

func newPlanChecker(ks *keySpace) *planChecker {
	return &planChecker{ks: ks, seed: maphash.MakeSeed(), verified: map[serveKey]verifiedPlan{}}
}

func (p *planChecker) check(k serveKey, resp *api.SolveResponse) error {
	if resp.Budget != k.budget {
		return fmt.Errorf("%s@%d: answer is for budget %d", k.model, k.budget, resp.Budget)
	}
	h := maphash.Bytes(p.seed, resp.Plan)
	p.mu.Lock()
	v, ok := p.verified[k]
	p.mu.Unlock()
	if ok && v.hash == h {
		if resp.PeakBytes != v.peak {
			return fmt.Errorf("%s@%d: reported peak %d differs from the plan's %d", k.model, k.budget, resp.PeakBytes, v.peak)
		}
		return nil
	}
	plan, err := client.DecodePlan(resp)
	if err != nil {
		return fmt.Errorf("%s@%d: %v", k.model, k.budget, err)
	}
	if err := checkPlan(p.ks.wls[k.model], plan, k.budget, resp.PeakBytes); err != nil {
		return fmt.Errorf("%s@%d: %v", k.model, k.budget, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.verified[k] = verifiedPlan{h, resp.PeakBytes}
	if len(p.captured) < captureCap {
		p.captured = append(p.captured, capturedAnswer{k, resp})
	}
	return nil
}

// checkPoint checks a sweep point, which carries a peak but no plan: the
// peak must fit the budget and match the key's verified plan, if any.
func (p *planChecker) checkPoint(k serveKey, pt api.SweepPoint) error {
	if pt.PeakBytes <= 0 || pt.PeakBytes > k.budget {
		return fmt.Errorf("%s@%d: sweep point peak %d does not fit the budget", k.model, k.budget, pt.PeakBytes)
	}
	p.mu.Lock()
	v, ok := p.verified[k]
	p.mu.Unlock()
	if ok && v.peak != pt.PeakBytes {
		return fmt.Errorf("%s@%d: sweep point peak %d differs from the plan's %d", k.model, k.budget, pt.PeakBytes, v.peak)
	}
	return nil
}

// serveEnv is one running server and the client that drives it.
type serveEnv struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	c      *client.Client
	dir    string
}

func startServer(spec serveSpec) (*serveEnv, error) {
	cfg := service.Config{
		Workers:          serveWorkers,
		DefaultTimeLimit: serveLimit,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	e := &serveEnv{}
	if spec.store {
		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			return nil, err
		}
		e.dir, cfg.CacheDir = dir, dir
	}
	srv, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(e.dir)
		return nil, err
	}
	e.srv = srv
	e.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.tr = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	e.c = client.New(e.base, &http.Client{Transport: e.tr})
	return e, nil
}

// close drains the server, stops the listener, waits for it to return, and
// removes the store directory.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Close()
	e.tr.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// serveSolveKey is the cache key the server computes for solveRequest(k).
func serveSolveKey(wl *checkmate.Workload, budget int64) graph.Fingerprint {
	return wl.SolveKeyFor(checkmate.Interval, budget, checkmate.SolveOptions{TimeLimit: serveLimit})
}

func solveRequest(k serveKey) api.SolveRequest {
	return api.SolveRequest{
		Model: k.model, Batch: zooBatch, CoarseSegments: zooSegments,
		Budget: k.budget, Method: string(checkmate.Interval),
		TimeLimitMS: serveLimit.Milliseconds(),
	}
}

// serveStats accumulates a window's requests as the clients saw them. Its
// size does not grow with the request count, so the benchmark's own memory
// does not follow throughput into peak_rss_mb.
type serveStats struct {
	requests, ok, answers, hits, proven int
	ovhLog, latLog                      float64 // sums of log(overhead) over answers, log(latency ms) over requests
	slices                              [serveSlices]latencyHist
	// missMS and solveMS describe the answers solved for their own request:
	// client latency minus the server's solve time, and the solve time.
	missMS, solveMS      []float64
	failures, violations []string
}

func (s *serveStats) merge(o *serveStats) {
	s.requests += o.requests
	s.ok += o.ok
	s.answers += o.answers
	s.hits += o.hits
	s.proven += o.proven
	s.ovhLog += o.ovhLog
	s.latLog += o.latLog
	for i := range s.slices {
		s.slices[i].merge(&o.slices[i])
	}
	s.missMS = append(s.missMS, o.missMS...)
	s.solveMS = append(s.solveMS, o.solveMS...)
	s.failures = append(s.failures, o.failures...)
	s.violations = append(s.violations, o.violations...)
}

// latencyHist counts latencies in buckets 1% wide from 1 µs up, so a
// quantile read from it is within 1% of the exact one.
type latencyHist struct {
	n      int
	counts [histBuckets]int32
}

const (
	histMinMS   = 1e-3
	histBuckets = 2000 // up to ~440 s
)

var logGrowth = math.Log(1.01)

func (h *latencyHist) add(ms float64) {
	i := 0
	if ms > histMinMS {
		i = min(int(math.Log(ms/histMinMS)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile interpolates the q-quantile within its bucket; 0 when empty.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			return histMinMS * math.Exp((float64(i)+(rank-cum+0.5)/float64(c))*logGrowth)
		}
		cum += float64(c)
	}
	return histMinMS * math.Exp(histBuckets*logGrowth)
}

type serveWindowResult struct {
	serveStats
	wall, window time.Duration
}

// opsPerS is the median over slices of completed requests per second.
func (w *serveWindowResult) opsPerS() float64 {
	slice := w.window.Seconds() / serveSlices
	rates := make([]float64, serveSlices)
	for i := range w.slices {
		d := slice
		if i == serveSlices-1 {
			d = w.wall.Seconds() - slice*(serveSlices-1)
		}
		rates[i] = float64(w.slices[i].n) / d
	}
	return quantile(rates, 0.5)
}

// latencyQuantile is the median over slices of each slice's q-quantile of
// request latency, in ms.
func (w *serveWindowResult) latencyQuantile(q float64) float64 {
	qs := make([]float64, 0, serveSlices)
	for i := range w.slices {
		if w.slices[i].n > 0 {
			qs = append(qs, w.slices[i].quantile(q))
		}
	}
	return quantile(qs, 0.5)
}

// serveWindow runs the closed loop for the window and waits for the last
// requests to finish. Every answer is checked as it arrives, after its
// latency has been taken.
func serveWindow(ctx context.Context, spec serveSpec, e *serveEnv, ks *keySpace, chk *planChecker, seed int64, window time.Duration, traced bool) *serveWindowResult {
	if traced {
		ctx = telemetry.WithTrace(ctx, telemetry.NewTrace())
	}
	res := &serveWindowResult{window: window}
	per := make([]serveStats, serveConns)
	gens := make([]*requestGen, serveConns)
	for c := range gens {
		gens[c] = newRequestGen(seed, c, ks.len(), spec.zipf)
	}
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				doRequest(ctx, e, ks, chk, gens[c].next(), start, window, &per[c])
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i := range per {
		res.merge(&per[i])
	}
	return res
}

// doRequest sends one request, times it, checks the answer and records it
// in out, in the slice of the window it completed in.
func doRequest(ctx context.Context, e *serveEnv, ks *keySpace, chk *planChecker, r request, start time.Time, window time.Duration, out *serveStats) {
	k := ks.key(r.key)
	ctx, span := telemetry.StartSpan(ctx, "bench."+opNames[r.kind])
	t0 := time.Now()
	var (
		resp  *api.SolveResponse
		sweep *api.SweepResponse
		err   error
	)
	switch r.kind {
	case opSolve:
		resp, err = e.c.Solve(ctx, solveRequest(k))
	case opStream:
		resp, err = e.c.SolveStream(ctx, solveRequest(k), 0, nil)
	case opSweep:
		req := api.SweepRequest{
			Model: k.model, Batch: zooBatch, CoarseSegments: zooSegments,
			Method: string(checkmate.Interval), TimeLimitMS: serveLimit.Milliseconds(),
		}
		for _, i := range ks.sweepKeys(r.key) {
			req.Budgets = append(req.Budgets, ks.key(i).budget)
		}
		sweep, err = e.c.Sweep(ctx, req)
	}
	lat := ms(time.Since(t0))
	slice := int(time.Since(start) * serveSlices / window)
	span.End()
	out.requests++
	out.slices[min(max(slice, 0), serveSlices-1)].add(lat)
	out.latLog += math.Log(lat)

	ok := true
	fail := func(format string, args ...any) {
		ok = false
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}
	violate := func(err error) {
		fail("%v", err)
		out.violations = append(out.violations, err.Error())
	}
	switch {
	case err != nil:
		fail("%s %s@%d: %v", opNames[r.kind], k.model, k.budget, err)
	case resp != nil:
		out.answers++
		out.ovhLog += math.Log(resp.Overhead)
		if resp.Cached {
			out.hits++
		} else {
			out.missMS = append(out.missMS, lat-resp.SolveMS)
			out.solveMS = append(out.solveMS, resp.SolveMS)
		}
		if resp.Optimal {
			out.proven++
		}
		if cerr := chk.check(k, resp); cerr != nil {
			violate(cerr)
		}
	case sweep != nil:
		byBudget := map[int64]serveKey{}
		for _, i := range ks.sweepKeys(r.key) {
			pk := ks.key(i)
			byBudget[pk.budget] = pk
		}
		if len(sweep.Points) != len(byBudget) {
			fail("sweep %s@%d: %d points for %d budgets", k.model, k.budget, len(sweep.Points), len(byBudget))
		}
		for _, pt := range sweep.Points {
			pk, known := byBudget[pt.Budget]
			switch {
			case !known:
				fail("sweep %s: point for unrequested budget %d", k.model, pt.Budget)
				continue
			case !pt.Feasible:
				fail("sweep point %s@%d: %s", pk.model, pk.budget, pt.Error)
				continue
			}
			out.answers++
			out.ovhLog += math.Log(pt.Overhead)
			if pt.Cached {
				out.hits++
			}
			if pt.Optimal {
				out.proven++
			}
			if cerr := chk.checkPoint(pk, pt); cerr != nil {
				violate(cerr)
			}
		}
	}
	if ok {
		out.ok++
	}
}

func runServe(ctx context.Context, spec serveSpec, o runOpts) (*report, error) {
	rep := newReport()
	var (
		ks      *keySpace
		env     *serveEnv
		chk     *planChecker
		buildMS []float64
	)
	setup := func() error {
		var err error
		var build float64
		if ks, build, err = buildKeySpace(spec); err != nil {
			return err
		}
		buildMS = append(buildMS, build)
		if env, err = startServer(spec); err != nil {
			return err
		}
		chk = newPlanChecker(ks)
		if spec.presolve {
			for i := 0; i < ks.len(); i++ {
				k := ks.key(i)
				resp, err := env.c.Solve(ctx, solveRequest(k))
				if err != nil {
					return fmt.Errorf("pre-solving %s@%d: %w", k.model, k.budget, err)
				}
				if err := chk.check(k, resp); err != nil {
					rep.violate("pre-solve: %v", err)
				}
			}
		}
		return nil
	}
	teardown := func() {
		if env != nil {
			env.close()
			env = nil
		}
	}
	defer teardown()
	setupS, err := medianSetup(spec.setupReps, setup, teardown)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.layer["nets.build_ms"] = quantile(buildMS, 0.5)

	before, err := snapshot(ctx, env)
	if err != nil {
		return nil, err
	}
	plain := serveWindow(ctx, spec, env, ks, chk, o.seed, o.seconds, false)
	after, err := snapshot(ctx, env)
	if err != nil {
		return nil, err
	}
	accountServe(rep, spec, plain)
	fillServeE2E(rep, plain)
	rep.notes = append(rep.notes, answerShares(before, after))
	if !o.trace {
		return rep, nil
	}

	// The traced window starts from a fresh set-up, so it sees the same
	// cache and store state as the untraced one did.
	teardown()
	if err := setup(); err != nil {
		return nil, err
	}
	before, err = snapshot(ctx, env)
	if err != nil {
		return nil, err
	}
	traced := serveWindow(ctx, spec, env, ks, chk, o.seed, o.seconds, true)
	after, err = snapshot(ctx, env)
	if err != nil {
		return nil, err
	}
	accountServe(rep, spec, traced)
	if err := fillServeLayers(ctx, rep, spec, env, ks, chk, traced, before, after); err != nil {
		return nil, err
	}
	rep.layer["telemetry.overhead_ratio"] = plain.opsPerS() / traced.opsPerS()
	return rep, nil
}

// accountServe adds a window's requests, failures and violations to the
// report, and enforces serve-hot's invariant that the window answers every
// lookup from the cache.
func accountServe(rep *report, spec serveSpec, w *serveWindowResult) {
	rep.attempted += w.requests
	rep.failed += w.requests - w.ok
	for i, f := range w.failures {
		if i == 5 {
			rep.notes = append(rep.notes, fmt.Sprintf("... %d more failures", len(w.failures)-5))
			break
		}
		rep.notes = append(rep.notes, "failed: "+f)
	}
	for _, v := range w.violations {
		rep.violate("%s", v)
	}
	if spec.presolve && w.hits != w.answers {
		rep.violate("%s: the timed window answered %d of %d lookups from the cache; every key was solved during set-up", spec.name, w.hits, w.answers)
	}
}

func fillServeE2E(rep *report, w *serveWindowResult) {
	rep.e2e["ops_per_s"] = w.opsPerS()
	rep.e2e["latency_p50_ms"] = w.latencyQuantile(0.5)
	rep.e2e["latency_p99_ms"] = w.latencyQuantile(0.99)
	rep.e2e["latency_geomean_ms"] = math.Exp(ratio(w.latLog, float64(w.requests)))
	rep.e2e["peak_rss_mb"] = peakRSSMiB()
	rep.e2e["overhead_geomean"] = math.Exp(ratio(w.ovhLog, float64(w.answers)))
	rep.e2e["proven_share"] = ratio(float64(w.proven), float64(w.answers))
	rep.e2e["solved_share"] = ratio(float64(w.ok), float64(w.requests))
	rep.notes = append(rep.notes, fmt.Sprintf("%d requests (%d answers) in %.1fs on %d connections",
		w.requests, w.answers, w.wall.Seconds(), serveConns))
}

// serverSnapshot is the server's public counters at one instant.
type serverSnapshot struct {
	stats *api.StatsResponse
	// routeSum and routeCount are the request-duration histogram's sum (s)
	// and count by route, from /metrics.
	routeSum, routeCount map[string]float64
}

func snapshot(ctx context.Context, e *serveEnv) (*serverSnapshot, error) {
	st, err := e.c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}
	snap := &serverSnapshot{stats: st, routeSum: map[string]float64{}, routeCount: map[string]float64{}}
	body, err := httpGet(ctx, e, "/metrics")
	if err != nil {
		return nil, err
	}
	const family = "checkmate_http_request_duration_seconds"
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		var into map[string]float64
		switch {
		case strings.HasPrefix(line, family+"_sum{"):
			into = snap.routeSum
		case strings.HasPrefix(line, family+"_count{"):
			into = snap.routeCount
		default:
			continue
		}
		route, value, ok := routeSample(line)
		if ok {
			into[route] = value
		}
	}
	return snap, nil
}

// routeSample parses `name{route="x"} value` into ("x", value).
func routeSample(line string) (string, float64, bool) {
	i := strings.Index(line, `route="`)
	if i < 0 {
		return "", 0, false
	}
	rest := line[i+len(`route="`):]
	j := strings.IndexByte(rest, '"')
	k := strings.LastIndexByte(line, ' ')
	if j < 0 || k < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[k+1:], 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:j], v, true
}

func httpGet(ctx context.Context, e *serveEnv, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: e.tr}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

type counterDeltas struct {
	lookups, hits, storeHits, storeMisses, storePuts, solves float64
}

func deltas(before, after *serverSnapshot) counterDeltas {
	b, a := before.stats, after.stats
	d := counterDeltas{
		hits:    float64(a.CacheHits - b.CacheHits),
		lookups: float64(a.CacheHits + a.CacheMisses - b.CacheHits - b.CacheMisses),
		solves:  float64(a.Solves - b.Solves),
	}
	if a.Store != nil && b.Store != nil {
		d.storeHits = float64(a.Store.Hits - b.Store.Hits)
		d.storeMisses = float64(a.Store.Misses - b.Store.Misses)
		d.storePuts = float64(a.Store.Puts - b.Store.Puts)
	}
	return d
}

// answerShares reports where the window's lookups were answered from.
func answerShares(before, after *serverSnapshot) string {
	d := deltas(before, after)
	return fmt.Sprintf("lookups %.0f: memory %.4f, store %.4f, fresh solve %.4f",
		d.lookups, ratio(d.hits, d.lookups), ratio(d.storeHits, d.lookups), ratio(d.solves, d.lookups))
}

func fillServeLayers(ctx context.Context, rep *report, spec serveSpec, e *serveEnv, ks *keySpace, chk *planChecker, w *serveWindowResult, before, after *serverSnapshot) error {
	l := rep.layer
	d := deltas(before, after)
	b, a := before.stats, after.stats
	l["service.cache_hit_ratio"] = ratio(d.hits, d.lookups)
	l["service.store_share"] = ratio(d.storeHits, d.lookups)
	l["service.solve_share"] = ratio(d.solves, d.lookups)
	l["service.cache_evictions"] = float64(a.CacheEvictions - b.CacheEvictions)
	l["service.solves"] = d.solves
	l["service.deduped"] = float64(a.Deduped - b.Deduped)
	l["service.admission_rejected"] = float64(a.Admission.Rejected - b.Admission.Rejected)
	l["store.hit_ratio"] = ratio(d.storeHits, d.storeHits+d.storeMisses)
	l["store.puts"] = d.storePuts
	for _, route := range []string{"solve", "solve_stream", "sweep"} {
		sum := after.routeSum[route] - before.routeSum[route]
		n := after.routeCount[route] - before.routeCount[route]
		l["service.server_ms_mean."+route] = ratio(sum*1e3, n)
	}

	l["service.miss_overhead_ms_p50"] = quantile(w.missMS, 0.5)
	l["interval.solve_ms_geomean"] = geomean(w.solveMS)

	// Sampled solve trees: the server keeps the span trees of its latest
	// solves; serve-hot's window runs none.
	if d.solves > 0 {
		itv, err := sampledSolveTrees(ctx, e)
		if err != nil {
			return err
		}
		setSolverLayers(l, nil, itv, nil)
		l["schedule.plan_ms"] = ratio(itv.self["plan"], itv.count["plan"])
	}

	// Isolated timings on answers captured from the run.
	chk.mu.Lock()
	captured := append([]capturedAnswer(nil), chk.captured...)
	chk.mu.Unlock()
	var encUS, decUS, keyUS, putMS, getMS []float64
	for _, c := range captured {
		wl := ks.wls[c.key.model]
		encUS = append(encUS, timeCallUS(func() { json.Marshal(c.resp) }))
		decUS = append(decUS, timeCallUS(func() { client.DecodePlan(c.resp) }))
		keyUS = append(keyUS, timeCallUS(func() { serveSolveKey(wl, c.key.budget) }))
	}
	l["service.encode_us"] = quantile(encUS, 0.5)
	l["client.decode_us"] = quantile(decUS, 0.5)
	l["graph.solvekey_us"] = quantile(keyUS, 0.5)
	if spec.store {
		var err error
		if putMS, getMS, err = timeStore(captured, ks); err != nil {
			return err
		}
		l["store.put_ms"] = quantile(putMS, 0.5)
		l["store.get_ms"] = quantile(getMS, 0.5)
	}
	return nil
}

// sampledSolveTrees fetches every solve trace the server retains and
// summarizes them.
func sampledSolveTrees(ctx context.Context, e *serveEnv) (*spanSummary, error) {
	body, err := httpGet(ctx, e, "/v1/solve/trace")
	if err != nil {
		return nil, err
	}
	var list api.TraceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("decoding the trace list: %w", err)
	}
	sum := newSpanSummary()
	for _, key := range list.Keys {
		body, err := httpGet(ctx, e, "/v1/solve/trace?key="+key)
		if err != nil {
			return nil, err
		}
		s, err := summarizeChrome(body)
		if err != nil {
			return nil, err
		}
		sum.add(s)
	}
	if sum.solves == 0 {
		return nil, errors.New("the server retained no solve traces")
	}
	return sum, nil
}

// timeStore times the disk store alone: each captured answer is written
// (as the server writes it) to a fresh store and read back.
func timeStore(captured []capturedAnswer, ks *keySpace) (putMS, getMS []float64, err error) {
	dir, err := os.MkdirTemp("", "perfbench-store-timing-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDisk(store.DiskOptions{Dir: dir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	for _, c := range captured {
		payload, err := json.Marshal(c.resp)
		if err != nil {
			return nil, nil, err
		}
		key := serveSolveKey(ks.wls[c.key.model], c.key.budget)
		start := time.Now()
		if err := st.Put(key, payload); err != nil {
			return nil, nil, fmt.Errorf("timing the store: %w", err)
		}
		putMS = append(putMS, ms(time.Since(start)))
		start = time.Now()
		if _, ok := st.Get(key); !ok {
			return nil, nil, errors.New("timing the store: entry just written is missing")
		}
		getMS = append(getMS, ms(time.Since(start)))
	}
	return putMS, getMS, nil
}
