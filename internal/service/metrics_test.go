package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service/api"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleRe matches one exposition sample line: name, optional labels, value.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?(?:Inf|[0-9].*))$`)

// metricValue finds the sample whose name+labels prefix matches and returns
// its value.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("series %s: bad value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics output", series)
	return 0
}

// TestMetricsExposition validates the whole scrape: every line is either a
// well-formed comment or a well-formed sample, every sample's family carries
// HELP and TYPE headers, and the counters a solve must move are present and
// moved.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t)
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: trainingSpec(6), Budget: 6}); errResp != nil {
		t.Fatalf("solve failed: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	body := scrapeMetrics(t, ts)
	if body == "" {
		t.Fatal("empty /metrics output")
	}

	declared := map[string]map[string]bool{} // family -> {"HELP","TYPE"}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition output", i+1)
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			if declared[parts[2]] == nil {
				declared[parts[2]] = map[string]bool{}
			}
			declared[parts[2]][parts[1]] = true
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		// _bucket/_sum/_count samples belong to their base histogram family.
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family && declared[base] != nil {
				family = base
				break
			}
		}
		if !declared[family]["HELP"] || !declared[family]["TYPE"] {
			t.Fatalf("line %d: sample %q has no HELP/TYPE header", i+1, line)
		}
	}

	if v := metricValue(t, body, "checkmate_solves_total"); v < 1 {
		t.Fatalf("checkmate_solves_total = %v after a solve, want >= 1", v)
	}
	if v := metricValue(t, body, `checkmate_http_requests_total{route="solve"}`); v < 1 {
		t.Fatalf(`checkmate_http_requests_total{route="solve"} = %v, want >= 1`, v)
	}
	if v := metricValue(t, body, "checkmate_solver_nodes_total"); v < 1 {
		t.Fatalf("checkmate_solver_nodes_total = %v after an optimal solve, want >= 1", v)
	}
	if v := metricValue(t, body, "go_goroutines"); v < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", v)
	}
}

// TestMetricsHistogramBuckets checks the latency histogram's exposition
// invariants: cumulative bucket counts are non-decreasing in le, the +Inf
// bucket equals _count, and _sum is present.
func TestMetricsHistogramBuckets(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	body := scrapeMetrics(t, ts)

	bucketRe := regexp.MustCompile(`^checkmate_http_request_duration_seconds_bucket\{route="healthz",le="([^"]+)"\} ([0-9]+)$`)
	type bucket struct {
		le    float64
		count int64
	}
	var buckets []bucket
	for _, line := range strings.Split(body, "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			if m[1] != "+Inf" {
				t.Fatalf("bad le %q", m[1])
			}
		}
		if m[1] == "+Inf" {
			le = 0 // handled below via last-position check
		}
		n, _ := strconv.ParseInt(m[2], 10, 64)
		buckets = append(buckets, bucket{le: le, count: n})
	}
	if len(buckets) < 2 {
		t.Fatalf("found %d healthz latency buckets, want >= 2\n%s", len(buckets), body)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Fatalf("bucket counts not cumulative: %v", buckets)
		}
	}
	inf := buckets[len(buckets)-1].count
	if count := int64(metricValue(t, body, `checkmate_http_request_duration_seconds_count{route="healthz"}`)); count != inf {
		t.Fatalf("+Inf bucket = %d but _count = %d", inf, count)
	}
	if count := buckets[len(buckets)-1].count; count < 3 {
		t.Fatalf("+Inf bucket = %d after 3 healthz requests, want >= 3", count)
	}
	metricValue(t, body, `checkmate_http_request_duration_seconds_sum{route="healthz"}`) // must exist
}

// statsMetricFor maps every /v1/stats JSON field (dotted for nesting) to the
// registry metric that backs it, or "" for fields that are deliberately
// JSON-only (identity strings, per-shard breakdowns of already-covered
// totals). TestStatsRegistryDriftGuard fails when a StatsResponse field has
// no entry here — adding a stats field forces either a metric or an explicit
// exemption.
var statsMetricFor = map[string]string{
	"requests":        "checkmate_http_requests_total",
	"solves":          "checkmate_solves_total",
	"cache_hits":      "checkmate_cache_hits_total",
	"cache_misses":    "checkmate_cache_misses_total",
	"cache_evictions": "checkmate_cache_evictions_total",
	"cache_size":      "checkmate_cache_size",
	"cache_cap":       "checkmate_cache_cap",
	"cache_shards":    "", // per-shard breakdown of the cache totals above

	"store.dir":          "", // identity, not a measurement
	"store.entries":      "checkmate_store_entries",
	"store.bytes":        "checkmate_store_bytes",
	"store.hits":         "checkmate_store_hits_total",
	"store.misses":       "checkmate_store_misses_total",
	"store.corrupt":      "checkmate_store_corrupt_total",
	"store.puts":         "checkmate_store_puts_total",
	"store.put_errors":   "checkmate_store_put_errors_total",
	"store.evicted_age":  "checkmate_store_evicted_age_total",
	"store.evicted_size": "checkmate_store_evicted_size_total",
	"store.sweeps":       "checkmate_store_sweeps_total",

	"store.breaker.open":                 "checkmate_store_breaker_open",
	"store.breaker.opens":                "checkmate_store_breaker_opens_total",
	"store.breaker.consecutive_failures": "checkmate_store_breaker_consecutive_failures",
	"store.breaker.skipped_puts":         "checkmate_store_breaker_skipped_puts_total",
	"store.breaker.skipped_gets":         "checkmate_store_breaker_skipped_gets_total",
	"store.breaker.probes":               "checkmate_store_breaker_probes_total",
	"store.breaker.probe_failures":       "checkmate_store_breaker_probe_failures_total",

	"store.remote.url":        "", // identity, not a measurement
	"store.remote.hits":       "checkmate_store_remote_hits_total",
	"store.remote.misses":     "checkmate_store_remote_misses_total",
	"store.remote.get_errors": "checkmate_store_remote_get_errors_total",
	"store.remote.puts":       "checkmate_store_remote_puts_total",
	"store.remote.put_errors": "checkmate_store_remote_put_errors_total",

	"store.remote.breaker.open":                 "checkmate_store_remote_breaker_open",
	"store.remote.breaker.opens":                "checkmate_store_remote_breaker_opens_total",
	"store.remote.breaker.consecutive_failures": "checkmate_store_remote_breaker_consecutive_failures",
	"store.remote.breaker.skipped_puts":         "checkmate_store_remote_breaker_skipped_puts_total",
	"store.remote.breaker.skipped_gets":         "checkmate_store_remote_breaker_skipped_gets_total",
	"store.remote.breaker.probes":               "checkmate_store_remote_breaker_probes_total",
	"store.remote.breaker.probe_failures":       "checkmate_store_remote_breaker_probe_failures_total",

	"fleet.self":            "", // identity, not a measurement
	"fleet.members":         "checkmate_fleet_members",
	"fleet.healthy":         "checkmate_fleet_peer_healthy",
	"fleet.unhealthy":       "checkmate_fleet_peer_unhealthy",
	"fleet.probes":          "checkmate_fleet_probes_total",
	"fleet.probe_failures":  "checkmate_fleet_probe_failures_total",
	"fleet.downs":           "checkmate_fleet_peer_downs_total",
	"fleet.forwards":        "checkmate_fleet_forwards_total",
	"fleet.forward_retries": "checkmate_fleet_forward_retries_total",
	"fleet.forward_errors":  "checkmate_fleet_forward_errors_total",
	"fleet.local_fallbacks": "checkmate_fleet_local_fallbacks_total",
	"fleet.hedges":          "checkmate_fleet_hedges_total",
	"fleet.hedge_wins":      "checkmate_fleet_hedge_wins_total",
	"fleet.peers":           "", // per-peer breakdown of the aggregates above

	"degraded.solves":  "checkmate_degraded_solves_total",
	"degraded.by_code": "", // per-code breakdown: checkmate_degraded_solves_by_code_total{code,method}

	"admission.max_outstanding_cost": "checkmate_admission_max_outstanding_cost",
	"admission.outstanding_cost":     "checkmate_admission_outstanding_cost",
	"admission.estimate_ratio":       "checkmate_admission_estimate_ratio",
	"admission.samples":              "checkmate_admission_calibration_samples",
	"admission.rejected":             "checkmate_admission_rejected_total",

	"solver.simplex_iters":        "checkmate_solver_simplex_iters_total",
	"solver.dual_iters":           "checkmate_solver_dual_iters_total",
	"solver.bound_flips":          "checkmate_solver_bound_flips_total",
	"solver.pricing_updates":      "checkmate_solver_pricing_updates_total",
	"solver.phase1_skipped":       "checkmate_solver_phase1_skipped_total",
	"solver.warm_hits":            "checkmate_solver_warm_hits_total",
	"solver.warm_misses":          "checkmate_solver_warm_misses_total",
	"solver.strong_branch_probes": "checkmate_solver_strong_branch_probes_total",
	"solver.probe_iters":          "checkmate_solver_probe_iters_total",
	"solver.pseudo_reliable":      "checkmate_solver_pseudo_reliable_total",
	"solver.eps_solves":           "checkmate_solver_eps_solves_total",
	"solver.eps_warm_hits":        "checkmate_solver_eps_warm_hits_total",
	"solver.nodes":                "checkmate_solver_nodes_total",
	"solver.nodes_per_sec":        "checkmate_solver_nodes_per_sec",
	"solver.threads":              "checkmate_solver_threads",

	"deduped":       "checkmate_solves_deduped_total",
	"cancelled":     "checkmate_solves_cancelled_total",
	"errors":        "checkmate_solve_errors_total",
	"in_flight":     "checkmate_pool_inflight",
	"queue_depth":   "checkmate_pool_queue_depth",
	"workers":       "checkmate_pool_workers",
	"worker_panics": "checkmate_pool_worker_panics_total",
	"uptime_ms":     "checkmate_uptime_seconds",
}

// walkJSONFields visits every leaf JSON field path of a struct type,
// descending into nested structs (and through pointers) with dotted paths.
func walkJSONFields(typ reflect.Type, prefix string, visit func(path string)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		path := tag
		if prefix != "" {
			path = prefix + "." + tag
		}
		ft := f.Type
		for ft.Kind() == reflect.Ptr {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			walkJSONFields(ft, path, visit)
			continue
		}
		visit(path)
	}
}

// TestStatsRegistryDriftGuard asserts every /v1/stats field is backed by a
// registry metric (or explicitly exempted), so /metrics and /v1/stats cannot
// silently diverge as fields are added.
func TestStatsRegistryDriftGuard(t *testing.T) {
	// A persistent store makes the store.* metrics register too.
	srv, _ := testServerCfg(t, persistentCfg(t.TempDir()))
	var missing []string
	walkJSONFields(reflect.TypeOf(api.StatsResponse{}), "", func(path string) {
		metric, ok := statsMetricFor[path]
		if !ok {
			missing = append(missing, path)
			return
		}
		if metric == "" {
			return
		}
		if !srv.metrics.reg.Has(metric) {
			t.Errorf("stats field %q maps to metric %q, which is not registered", path, metric)
		}
	})
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("stats fields with no metric mapping (add to statsMetricFor, with a metric or an explicit \"\" exemption): %v", missing)
	}
}

// TestStatsConcurrentWithSolves hammers Stats(), /v1/stats, and /metrics
// while solves run. Under -race this is the regression test for the old
// non-atomic counter reads.
func TestStatsConcurrentWithSolves(t *testing.T) {
	srv, ts := testServer(t)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Stats()
			for _, path := range []string{"/v1/stats", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	var solvers sync.WaitGroup
	for i := 0; i < 4; i++ {
		solvers.Add(1)
		go func(i int) {
			defer solvers.Done()
			// NoCache keeps every request on the solver path; distinct
			// budgets defeat single-flight dedup so solves overlap.
			body, _ := json.Marshal(api.SolveRequest{Graph: chainSpec(8), Budget: int64(5 + i), NoCache: true})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Errorf("solve %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve %d: HTTP %d", i, resp.StatusCode)
			}
		}(i)
	}
	solvers.Wait()
	close(stop)
	readers.Wait()

	if st := srv.Stats(); st.Solves < 4 {
		t.Fatalf("solves = %d, want >= 4", st.Solves)
	}
}

// TestSolveTraceEndpoint exercises GET /v1/solve/trace: listing retained
// fingerprints, fetching one as Chrome trace_event JSON, and 404 on unknown
// keys.
func TestSolveTraceEndpoint(t *testing.T) {
	_, ts := testServer(t)
	solved, errResp := postSolve(t, ts, api.SolveRequest{Graph: trainingSpec(6), Budget: 6})
	if errResp != nil {
		t.Fatalf("solve failed: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}

	resp, err := http.Get(ts.URL + "/v1/solve/trace")
	if err != nil {
		t.Fatal(err)
	}
	var list api.TraceListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, k := range list.Keys {
		if k == solved.Fingerprint {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace list %v does not contain solved fingerprint %s", list.Keys, solved.Fingerprint)
	}

	resp, err = http.Get(ts.URL + "/v1/solve/trace?key=" + solved.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not Chrome trace_event JSON: %v", err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"solve", "presolve", "branch_and_bound", "root_lp"} {
		if !names[want] {
			t.Fatalf("trace has no %q span; spans: %v", want, names)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/solve/trace?key=" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace key: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestRequestIDPropagation checks the ID lifecycle: server-assigned when
// absent, echoed when supplied, and stamped into error bodies.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := testServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid == "" {
		t.Fatal("no server-assigned X-Request-ID on response")
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader("{not json"))
	req.Header.Set("X-Request-ID", "test-rid-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid != "test-rid-123" {
		t.Fatalf("client-supplied request ID not echoed: got %q", rid)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	var e api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "test-rid-123" {
		t.Fatalf("error body request_id = %q, want test-rid-123 (error: %s)", e.RequestID, e.Error)
	}
}
