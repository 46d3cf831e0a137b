package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
	"repro/internal/service/fleet"
)

// The fleet tests below drive the three solve-plane endpoints that
// fleet_integration_test.go does not: GET /v1/solve/stream, POST /v1/sweep
// and GET /v1/sweep/stream, each entered through a non-owner.

// sweepBudgets are the budgets every fleet sweep test asks for. Each fits
// the chains sweepOwnedBy returns, so every point is feasible.
var sweepBudgets = []int64{6, 8, 10}

// freezeProbes stops the failure detector from running during a test, so a
// crashed owner is discovered by the request path itself.
func freezeProbes(_ int, cfg *Config) { cfg.FleetProbeInterval = time.Hour }

func memberURLs(nodes []*fleetNode) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	return urls
}

// sweepOwnedBy returns a chain whose sweeps the rendezvous hash assigns to
// nodes[want]. A sweep routes by its workload's fingerprint and its method
// (the request's "method" as written, "" here), not by its budgets.
func sweepOwnedBy(t *testing.T, nodes []*fleetNode, want int) *api.GraphSpec {
	t.Helper()
	urls := memberURLs(nodes)
	for n := 12; n < 64; n++ {
		spec := chainSpec(n)
		wl, err := nodes[0].srv.buildWorkload(workloadSpec{graph: spec})
		if err != nil {
			t.Fatal(err)
		}
		if fleet.OwnerOf(urls, "sweep/"+wl.Fingerprint().String()+"/") == nodes[want].url {
			return spec
		}
	}
	t.Fatalf("no chain of 12 to 63 nodes is owned by node %d", want)
	return nil
}

// solveStreamAt builds node's GET /v1/solve/stream URL for a graph solve.
func solveStreamAt(node *fleetNode, spec *api.GraphSpec, budget int64) string {
	raw, _ := json.Marshal(spec)
	return fmt.Sprintf("%s/v1/solve/stream?budget=%d&graph=%s", node.url, budget, urlQueryEscape(string(raw)))
}

// sweepStreamAt builds node's GET /v1/sweep/stream URL for sweepBudgets.
func sweepStreamAt(node *fleetNode, spec *api.GraphSpec) string {
	raw, _ := json.Marshal(spec)
	return fmt.Sprintf("%s/v1/sweep/stream?budgets=6,8,10&graph=%s", node.url, urlQueryEscape(string(raw)))
}

// streamFrames reads one SSE stream to its done frame and decodes that
// frame.
func streamFrames(t *testing.T, url string) ([]api.StreamEvent, api.StreamDone) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	frames, _ := readSSE(t, resp.Body)
	if len(frames) == 0 || frames[len(frames)-1].Event != api.StreamEventDone {
		t.Fatalf("stream ended without a done frame: %+v", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[len(frames)-1].Data, &done); err != nil {
		t.Fatal(err)
	}
	return frames, done
}

// sweepAt posts sweepBudgets over spec to node and decodes the 200 answer.
func sweepAt(t *testing.T, node *fleetNode, spec *api.GraphSpec) api.SweepResponse {
	t.Helper()
	body, _ := json.Marshal(api.SweepRequest{Graph: spec, Budgets: sweepBudgets})
	resp, err := http.Post(node.url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	var out api.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSweepFeasible fails unless sw answers every budget of sweepBudgets.
func checkSweepFeasible(t *testing.T, sw *api.SweepResponse) {
	t.Helper()
	if sw == nil || len(sw.Points) != len(sweepBudgets) {
		t.Fatalf("sweep answer %+v, want %d points", sw, len(sweepBudgets))
	}
	for i, pt := range sw.Points {
		if pt.Budget != sweepBudgets[i] || !pt.Feasible {
			t.Fatalf("point %d: budget %d feasible %v error %q", i, pt.Budget, pt.Feasible, pt.Error)
		}
	}
}

// checkDegradedFrame fails unless ev is the degraded frame of a request that
// fell back from owner to a local run.
func checkDegradedFrame(t *testing.T, ev api.StreamEvent, owner string) {
	t.Helper()
	if ev.Event != api.StreamEventDegraded {
		t.Fatalf("first frame %q, want %q", ev.Event, api.StreamEventDegraded)
	}
	var d api.StreamDegraded
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.From != "fleet:"+owner || d.To != "local" {
		t.Fatalf("degraded frame from %q to %q, want from %q to local", d.From, d.To, "fleet:"+owner)
	}
}

// checkSolves fails unless node i ran the solver want[i] times.
func checkSolves(t *testing.T, nodes []*fleetNode, want ...int64) {
	t.Helper()
	for i, n := range nodes {
		if got := n.srv.Stats().Solves; got != want[i] {
			t.Fatalf("node %d solved %d times, want %d", i, got, want[i])
		}
	}
}

func localFallbacks(node *fleetNode) int64 {
	if st := node.srv.Stats(); st.Fleet != nil {
		return st.Fleet.LocalFallbacks
	}
	return 0
}

// TestFleetSolveStreamRelayed: a stream entered through a non-owner is the
// owner's stream; the owner solves once and the entry node not at all.
func TestFleetSolveStreamRelayed(t *testing.T) {
	nodes := fleetCluster(t, 2, nil)
	spec := chainSpec(16)
	budget := budgetOwnedBy(t, nodes, spec, 1)

	frames, done := streamFrames(t, solveStreamAt(nodes[0], spec, budget))
	if done.Error != "" || done.Result == nil {
		t.Fatalf("done frame: %s", frames[len(frames)-1].Data)
	}
	if done.Result.Degraded {
		t.Fatalf("relayed stream degraded: %s", done.Result.DegradedReason)
	}
	checkSolves(t, nodes, 0, 1)
	if st := nodes[0].srv.Stats(); st.Fleet == nil || st.Fleet.Forwards == 0 {
		t.Fatalf("entry node reports no forwards: %+v", st.Fleet)
	}
}

// TestFleetSolveStreamOwnerCrash: with the owner down and not yet detected,
// the entry node streams a local solve that opens with a degraded frame and
// ends stamped fleet_local.
func TestFleetSolveStreamOwnerCrash(t *testing.T) {
	nodes := fleetCluster(t, 2, freezeProbes)
	spec := chainSpec(16)
	budget := budgetOwnedBy(t, nodes, spec, 1)
	nodes[1].crash()

	frames, done := streamFrames(t, solveStreamAt(nodes[0], spec, budget))
	checkDegradedFrame(t, frames[0], nodes[1].url)
	if done.Error != "" || done.Result == nil {
		t.Fatalf("done frame: %s", frames[len(frames)-1].Data)
	}
	if !done.Result.Degraded || done.Result.DegradedCode != string(checkmate.DegradedFleetLocal) {
		t.Fatalf("done result not stamped fleet_local: degraded=%v code=%q", done.Result.Degraded, done.Result.DegradedCode)
	}
	if got := nodes[0].srv.Stats().Solves; got != 1 {
		t.Fatalf("entry node solved %d times, want 1", got)
	}
}

// TestFleetSweepRelayed: a blocking sweep entered through a non-owner is
// solved point by point at the owner.
func TestFleetSweepRelayed(t *testing.T) {
	nodes := fleetCluster(t, 2, nil)
	spec := sweepOwnedBy(t, nodes, 1)

	sw := sweepAt(t, nodes[0], spec)
	checkSweepFeasible(t, &sw)
	checkSolves(t, nodes, 0, int64(len(sweepBudgets)))
	if got := localFallbacks(nodes[0]); got != 0 {
		t.Fatalf("relayed sweep counted %d local fallbacks", got)
	}
}

// TestFleetSweepOwnerCrash: a blocking sweep whose owner is down runs at the
// entry node. SweepPoint has no degraded code, so the fallback is counted,
// once per request.
func TestFleetSweepOwnerCrash(t *testing.T) {
	nodes := fleetCluster(t, 2, freezeProbes)
	spec := sweepOwnedBy(t, nodes, 1)
	nodes[1].crash()

	sw := sweepAt(t, nodes[0], spec)
	checkSweepFeasible(t, &sw)
	if got := nodes[0].srv.Stats().Solves; got != int64(len(sweepBudgets)) {
		t.Fatalf("entry node solved %d times, want %d", got, len(sweepBudgets))
	}
	if got := localFallbacks(nodes[0]); got != 1 {
		t.Fatalf("local_fallbacks = %d, want 1", got)
	}
}

// TestFleetSweepStreamOwnerCrash: a sweep stream whose owner is down opens
// with a degraded frame, narrates one sweep_point per budget and ends with
// the whole sweep.
func TestFleetSweepStreamOwnerCrash(t *testing.T) {
	nodes := fleetCluster(t, 2, freezeProbes)
	spec := sweepOwnedBy(t, nodes, 1)
	nodes[1].crash()

	frames, done := streamFrames(t, sweepStreamAt(nodes[0], spec))
	checkDegradedFrame(t, frames[0], nodes[1].url)
	if len(frames) != len(sweepBudgets)+2 {
		t.Fatalf("%d frames, want degraded + %d sweep_point + done: %+v", len(frames), len(sweepBudgets), frames)
	}
	for _, ev := range frames[1 : len(frames)-1] {
		if ev.Event != api.StreamEventSweepPoint {
			t.Fatalf("frame %d is %q, want %q", ev.ID, ev.Event, api.StreamEventSweepPoint)
		}
	}
	if done.Error != "" {
		t.Fatalf("done frame: %s", frames[len(frames)-1].Data)
	}
	checkSweepFeasible(t, done.Sweep)
	if got := localFallbacks(nodes[0]); got != 1 {
		t.Fatalf("local_fallbacks = %d, want 1", got)
	}
}

// corpusURL starts a standalone server that exposes its store as the shared
// remote corpus, and returns the corpus's base URL.
func corpusURL(t *testing.T) string {
	t.Helper()
	srv, err := New(Config{Workers: 1, CacheDir: t.TempDir(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.StoreHandler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestFleetFallbackChecksLocalTiersOnce: a solve whose owner is down looks
// in memory, on disk and in the remote corpus once before it is solved
// here, not once before the relay and again after it fails.
func TestFleetFallbackChecksLocalTiersOnce(t *testing.T) {
	corpus := corpusURL(t)
	nodes := fleetCluster(t, 2, func(i int, cfg *Config) {
		freezeProbes(i, cfg)
		cfg.CacheDir = t.TempDir()
		cfg.RemoteStoreURL = corpus
	})
	spec := chainSpec(16)
	budget := budgetOwnedBy(t, nodes, spec, 1)
	nodes[1].crash()

	resp, err := solveAt(nodes[0], api.SolveRequest{Graph: spec, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DegradedCode != string(checkmate.DegradedFleetLocal) {
		t.Fatalf("fallback answer not stamped fleet_local: code %q", resp.DegradedCode)
	}
	st := nodes[0].srv.Stats()
	if st.Store == nil || st.Store.Remote == nil {
		t.Fatalf("entry node has no tiered store: %+v", st.Store)
	}
	if st.CacheMisses != 1 || st.Store.Misses != 1 || st.Store.Remote.Misses != 1 {
		t.Fatalf("misses: memory %d, disk %d, remote %d; want 1 each",
			st.CacheMisses, st.Store.Misses, st.Store.Remote.Misses)
	}
}

// TestFleetStreamLocalHitCountsOnce: a non-owner that holds a stream's
// answer in memory serves it without relaying, and counts one cache hit.
func TestFleetStreamLocalHitCountsOnce(t *testing.T) {
	nodes := fleetCluster(t, 2, nil)
	spec := chainSpec(16)
	budget := budgetOwnedBy(t, nodes, spec, 1)
	// The relayed answer is kept in the entry node's memory tier.
	if _, err := solveAt(nodes[0], api.SolveRequest{Graph: spec, Budget: budget}); err != nil {
		t.Fatal(err)
	}
	before := nodes[0].srv.Stats()

	frames, done := streamFrames(t, solveStreamAt(nodes[0], spec, budget))
	if len(frames) != 1 || done.Result == nil || !done.Result.Cached {
		t.Fatalf("stream of a locally cached answer: %+v", frames)
	}
	after := nodes[0].srv.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != 1 {
		t.Fatalf("stream counted %d cache hits, want 1", hits)
	}
	if after.Fleet.Forwards != before.Fleet.Forwards {
		t.Fatal("a locally cached stream was relayed")
	}
}
