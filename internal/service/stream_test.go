package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
)

// streamURL builds the SSE endpoint URL for a chain-graph solve.
func streamURL(ts *httptest.Server, spec *api.GraphSpec, budget int64, extra string) string {
	raw, _ := json.Marshal(spec)
	u := fmt.Sprintf("%s/v1/solve/stream?budget=%d&graph=%s", ts.URL, budget, urlQueryEscape(string(raw)))
	if extra != "" {
		u += "&" + extra
	}
	return u
}

func urlQueryEscape(s string) string {
	r := strings.NewReplacer("{", "%7B", "}", "%7D", `"`, "%22", "[", "%5B", "]", "%5D", ",", "%2C", " ", "%20")
	return r.Replace(s)
}

// readSSE consumes one SSE stream, returning the decoded frames and the
// number of heartbeat comments seen. It stops at the done frame or stream
// end.
func readSSE(t *testing.T, body io.Reader) (frames []api.StreamEvent, heartbeats int) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev api.StreamEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Event != "" {
				frames = append(frames, ev)
				if ev.Event == api.StreamEventDone {
					return frames, heartbeats
				}
				ev = api.StreamEvent{}
			}
		case strings.HasPrefix(line, ":"):
			heartbeats++
		case strings.HasPrefix(line, "id:"):
			fmt.Sscanf(line, "id: %d", &ev.ID)
		case strings.HasPrefix(line, "event:"):
			ev.Event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			ev.Data = json.RawMessage(strings.TrimSpace(line[5:]))
		}
	}
	return frames, heartbeats
}

// TestStreamEventOrdering is the acceptance flow: on a budget-tight solve
// the stream must deliver started first, at least one incumbent strictly
// before the terminal done, IDs must be sequential, and the done frame's
// schedule must equal the blocking /v1/solve result for the same SolveKey.
func TestStreamEventOrdering(t *testing.T) {
	srv, ts := testServer(t)
	spec := trainingSpec(7)
	const budget = 7 // under the ideal peak (8): the solver must search

	resp, err := http.Get(streamURL(ts, spec, budget, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	frames, _ := readSSE(t, resp.Body)
	if len(frames) < 3 {
		t.Fatalf("only %d frames: %+v", len(frames), frames)
	}
	if frames[0].Event != api.StreamEventStarted {
		t.Fatalf("first frame %q, want started", frames[0].Event)
	}
	var started api.StreamStarted
	if err := json.Unmarshal(frames[0].Data, &started); err != nil || started.Vars <= 0 || started.Rows <= 0 {
		t.Fatalf("started payload %s (err %v)", frames[0].Data, err)
	}
	last := frames[len(frames)-1]
	if last.Event != api.StreamEventDone {
		t.Fatalf("last frame %q, want done", last.Event)
	}
	sawIncumbent := false
	for i, fr := range frames {
		if fr.ID != i+1 {
			t.Fatalf("frame %d has id %d, want %d", i, fr.ID, i+1)
		}
		if fr.Event == api.StreamEventIncumbent {
			if !sawIncumbent {
				var inc api.StreamIncumbent
				if err := json.Unmarshal(fr.Data, &inc); err != nil || inc.Objective <= 0 || inc.Overhead < 1 {
					t.Fatalf("incumbent payload %s (err %v)", fr.Data, err)
				}
			}
			sawIncumbent = true
		}
		if fr.Event == api.StreamEventDone && i != len(frames)-1 {
			t.Fatal("done frame was not terminal")
		}
	}
	if !sawIncumbent {
		t.Fatal("no incumbent frame before done on a budget-tight solve")
	}
	var done api.StreamDone
	if err := json.Unmarshal(last.Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Error != "" || done.Result == nil {
		t.Fatalf("done frame: %s", last.Data)
	}

	// The streamed schedule and the blocking endpoint's must be the same
	// object for the same SolveKey.
	blocking, errResp := postSolve(t, ts, api.SolveRequest{Graph: spec, Budget: budget})
	if errResp != nil {
		t.Fatalf("blocking solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if blocking.Fingerprint != done.Result.Fingerprint {
		t.Fatalf("fingerprints differ: stream %s vs blocking %s", done.Result.Fingerprint, blocking.Fingerprint)
	}
	if !bytes.Equal(blocking.Plan, done.Result.Plan) {
		t.Fatal("streamed plan differs from the blocking plan")
	}
	if !blocking.Cached {
		t.Fatal("blocking solve after the stream missed the cache (keys diverged)")
	}
	if st := srv.Stats(); st.Solves != 1 {
		t.Fatalf("stream + blocking solve ran the solver %d times, want 1", st.Solves)
	}
}

// TestStreamCachedSolveSkipsStraightToDone: a stream for an already-cached
// SolveKey delivers only the terminal done frame.
func TestStreamCachedSolveSkipsStraightToDone(t *testing.T) {
	_, ts := testServer(t)
	spec := chainSpec(10)
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: spec, Budget: 6}); errResp != nil {
		t.Fatalf("warmup solve failed: %d", errResp.StatusCode)
	}
	resp, err := http.Get(streamURL(ts, spec, 6, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, resp.Body)
	if len(frames) != 1 || frames[0].Event != api.StreamEventDone {
		t.Fatalf("cached stream frames: %+v", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[0].Data, &done); err != nil || done.Result == nil {
		t.Fatalf("done payload %s (err %v)", frames[0].Data, err)
	}
	if !done.Result.Cached {
		t.Fatal("cached streamed result not marked cached")
	}
}

// TestStreamClientCancellationStopsSolve: a watcher that disconnects
// mid-solve must release the solver worker (the hub cancels the flight when
// its last watcher leaves).
func TestStreamClientCancellationStopsSolve(t *testing.T) {
	// Hold the solve at its root expansion so it outlives the disconnect.
	defer holdFirstNode(200 * time.Millisecond)()
	srv, ts := testServer(t)
	spec := trainingSpec(24)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		streamURL(ts, spec, 8, "time_limit_ms=60000"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait until the solve occupies a worker, then drop the connection.
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("streamed solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	deadline = time.Now().Add(10 * time.Second)
	for srv.pool.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("solver worker still busy 10s after the stream was dropped: leaked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.pool.cancelled.Load() != 1 {
		t.Fatalf("cancelled counter = %d, want 1", srv.pool.cancelled.Load())
	}
	// The hub must be unregistered so the key isn't poisoned.
	deadline = time.Now().Add(5 * time.Second)
	for {
		srv.streamMu.Lock()
		n := len(srv.streams)
		srv.streamMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stream hubs leaked after disconnect", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamSingleFlightAttach: two concurrent watchers of one SolveKey
// must share a single solve and receive identical terminal results.
func TestStreamSingleFlightAttach(t *testing.T) {
	srv, ts := testServer(t)
	spec := chainSpec(16)
	const budget = 9

	var wg sync.WaitGroup
	results := make([]*api.StreamDone, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(streamURL(ts, spec, budget, ""))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			frames, _ := readSSE(t, resp.Body)
			if len(frames) == 0 {
				errs[i] = fmt.Errorf("empty stream")
				return
			}
			last := frames[len(frames)-1]
			if last.Event != api.StreamEventDone {
				errs[i] = fmt.Errorf("stream ended on %q", last.Event)
				return
			}
			var done api.StreamDone
			if err := json.Unmarshal(last.Data, &done); err != nil {
				errs[i] = err
				return
			}
			results[i] = &done
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("watcher %d: %v", i, err)
		}
		if results[i].Error != "" || results[i].Result == nil {
			t.Fatalf("watcher %d done frame: %+v", i, results[i])
		}
	}
	if results[0].Result.Fingerprint != results[1].Result.Fingerprint {
		t.Fatalf("watchers saw different schedules: %s vs %s",
			results[0].Result.Fingerprint, results[1].Result.Fingerprint)
	}
	if st := srv.Stats(); st.Solves != 1 {
		t.Fatalf("two watchers cost %d solves, want 1", st.Solves)
	}
}

// TestStreamAttachesToInFlightBlockingSolve: a watcher whose SolveKey is
// already being solved by a blocking /v1/solve request joins that flight
// via the pool's single-flight dedup — and must still receive the solve's
// remaining progress frames (the solver's observer resolves the hub per
// event, not once at solve start).
func TestStreamAttachesToInFlightBlockingSolve(t *testing.T) {
	if testing.Short() {
		// The race detector's slowdown can exhaust the solve's time limit
		// before the first incumbent; the dynamic-lookup contract itself is
		// covered deterministically by TestKeyObserverResolvesHubPerEvent.
		t.Skip("timing-sensitive solver integration; skipped under -short")
	}
	// Hold the solve at its root expansion so the stream attaches while it
	// is still in flight.
	defer holdFirstNode(200 * time.Millisecond)()
	srv, ts := testServer(t)
	spec := trainingSpec(24)
	const budget = 8

	// Start the blocking solve and wait until it occupies a worker.
	type blockResult struct {
		resp *api.SolveResponse
		err  *http.Response
	}
	blockc := make(chan blockResult, 1)
	go func() {
		resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: spec, Budget: budget, TimeLimitMS: 5_000})
		blockc <- blockResult{resp, errResp}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocking solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Attach a stream for the same key mid-flight.
	resp, err := http.Get(streamURL(ts, spec, budget, "time_limit_ms=5000"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, resp.Body)
	if len(frames) == 0 || frames[len(frames)-1].Event != api.StreamEventDone {
		t.Fatalf("late-attached stream malformed: %+v", frames)
	}
	progress := 0
	for _, fr := range frames {
		if fr.Event == api.StreamEventIncumbent || fr.Event == api.StreamEventBound {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("late-attached stream saw no progress frames before done: %+v", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[len(frames)-1].Data, &done); err != nil || done.Result == nil {
		t.Fatalf("done payload %s (err %v)", frames[len(frames)-1].Data, err)
	}
	b := <-blockc
	if b.err != nil {
		t.Fatalf("blocking solve: HTTP %d", b.err.StatusCode)
	}
	if b.resp.Fingerprint != done.Result.Fingerprint {
		t.Fatalf("streamed fingerprint %s != blocking %s", done.Result.Fingerprint, b.resp.Fingerprint)
	}
	if st := srv.Stats(); st.Solves != 1 {
		t.Fatalf("stream + blocking ran %d solves, want 1 (single flight)", st.Solves)
	}
}

// TestKeyObserverResolvesHubPerEvent pins the late-attach contract at the
// unit level: the solver-side observer must resolve the hub at each event,
// so a hub registered after the solve began still receives later events.
func TestKeyObserverResolvesHubPerEvent(t *testing.T) {
	srv, _ := testServer(t)
	wl, err := buildTestWorkload(srv, chainSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.solveParamsFrom(string(checkmate.Optimal), 6, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := wl.SolveKeyFor(p.method, p.budget, p.opt)
	obs := srv.keyObserver(key, wl.Graph.Len())

	// No hub yet: the event goes nowhere (and must not panic).
	obs.OnEvent(checkmate.Event{Kind: checkmate.EventIncumbent, Objective: 1})

	hub, release := srv.attachStream(key.String(), func(context.Context, *streamHub) {})
	defer release()
	obs.OnEvent(checkmate.Event{Kind: checkmate.EventIncumbent, Objective: 2, Overhead: 1.5})
	evs, _ := hub.eventsAfter(0)
	if len(evs) != 1 || evs[0].Event != api.StreamEventIncumbent {
		t.Fatalf("hub events after late registration: %+v, want one incumbent", evs)
	}

	// Hub gone again (last watcher left): later events are dropped.
	srv.removeStream(hub)
	obs.OnEvent(checkmate.Event{Kind: checkmate.EventIncumbent, Objective: 3})
	if evs, _ := hub.eventsAfter(0); len(evs) != 1 {
		t.Fatalf("unregistered hub still receives events: %+v", evs)
	}
}

// TestAttachStreamSharesOneHub pins the single-flight attach contract at
// the unit level, free of solver timing: the second attach for a key must
// join the first hub without starting another solve.
func TestAttachStreamSharesOneHub(t *testing.T) {
	srv, _ := testServer(t)
	// attachStream launches start in its own goroutine; count starts
	// atomically and wait for the expected count before asserting.
	var starts atomic.Int32
	block := make(chan struct{})
	start := func(ctx context.Context, h *streamHub) {
		starts.Add(1)
		go func() {
			<-block
			h.publish(api.StreamEventDone, api.StreamDone{})
			srv.removeStream(h)
		}()
	}
	waitStarts := func(want int32) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for starts.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("solve started %d times, want %d", starts.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	h1, release1 := srv.attachStream("k", start)
	h2, release2 := srv.attachStream("k", start)
	if h1 != h2 {
		t.Fatal("second watcher got a different hub")
	}
	waitStarts(1)
	// A different key gets its own hub and solve.
	h3, release3 := srv.attachStream("other", start)
	if h3 == h1 {
		t.Fatal("distinct key shared a hub")
	}
	waitStarts(2)
	close(block)
	release1()
	release2()
	release3()
	// After every watcher detached and the solves finished, no hub remains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.streamMu.Lock()
		n := len(srv.streams)
		srv.streamMu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d hubs leaked", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamHubReplay: eventsAfter implements Last-Event-ID resume — a
// cursor skips exactly the frames already seen.
func TestStreamHubReplay(t *testing.T) {
	h := newStreamHub("k", func() {})
	h.publish(api.StreamEventStarted, api.StreamStarted{Budget: 1})
	h.publish(api.StreamEventIncumbent, api.StreamIncumbent{Objective: 2})
	h.publish(api.StreamEventDone, api.StreamDone{})

	all, done := h.eventsAfter(0)
	if len(all) != 3 || !done {
		t.Fatalf("full replay: %d frames, done=%v", len(all), done)
	}
	tail, _ := h.eventsAfter(1)
	if len(tail) != 2 || tail[0].ID != 2 || tail[1].ID != 3 {
		t.Fatalf("resume after id 1: %+v", tail)
	}
	none, done := h.eventsAfter(3)
	if len(none) != 0 || !done {
		t.Fatalf("resume at end: %d frames, done=%v", len(none), done)
	}
	// Publishing after done is ignored: the stream is sealed.
	h.publish(api.StreamEventBound, api.StreamBound{})
	if evs, _ := h.eventsAfter(0); len(evs) != 3 {
		t.Fatalf("post-done publish extended the stream to %d frames", len(evs))
	}
}

// TestStreamLastEventIDOverHTTP: a reconnecting watcher that presents
// Last-Event-ID must not be sent frames it already has.
func TestStreamLastEventIDOverHTTP(t *testing.T) {
	srv, ts := testServer(t)
	spec := chainSpec(10)

	// Hold a hub open with a fake in-flight solve so the reconnect hits the
	// same event history.
	hub, release := srv.attachStream("held", func(ctx context.Context, h *streamHub) {})
	defer release()
	hub.publish(api.StreamEventStarted, api.StreamStarted{Budget: 6})
	hub.publish(api.StreamEventIncumbent, api.StreamIncumbent{Objective: 3})
	_ = spec

	// Reconnect-style read directly via the hub: the HTTP path routes the
	// header through the same cursor.
	req, err := http.NewRequest(http.MethodGet, streamURL(ts, spec, 6, ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, resp.Body)
	for _, fr := range frames {
		if fr.ID <= 1 {
			t.Fatalf("frame id %d replayed despite Last-Event-ID: 1 (%+v)", fr.ID, fr)
		}
	}
	if len(frames) == 0 || frames[len(frames)-1].Event != api.StreamEventDone {
		t.Fatalf("resumed stream malformed: %+v", frames)
	}
}

// TestStreamStaleLastEventID: a Last-Event-ID from a previous hub's stream
// (the solve finished; a fresh hub serves the cached result with IDs
// restarting at 1) can overshoot the new hub's entire history — the
// terminal done frame must still be delivered, never an empty stream.
func TestStreamStaleLastEventID(t *testing.T) {
	_, ts := testServer(t)
	spec := chainSpec(10)
	// Solve once so the key is cached: the reconnect's hub will hold a
	// single done frame with ID 1.
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: spec, Budget: 6}); errResp != nil {
		t.Fatalf("warmup solve failed: %d", errResp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodGet, streamURL(ts, spec, 6, ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "7") // from a longer, long-gone stream
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, resp.Body)
	if len(frames) != 1 || frames[0].Event != api.StreamEventDone {
		t.Fatalf("stale-cursor stream frames: %+v, want the terminal done", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[0].Data, &done); err != nil || done.Result == nil {
		t.Fatalf("done payload %s (err %v)", frames[0].Data, err)
	}
}

// TestStreamHeartbeats: a quiet stretch of a long solve must carry SSE
// keepalive comments so proxies and idle connections stay open.
func TestStreamHeartbeats(t *testing.T) {
	// Hold the solve at its root expansion so it far outlives a few
	// heartbeat intervals; the client hangs up after observing them,
	// abandoning the solve.
	defer holdFirstNode(200 * time.Millisecond)()
	_, ts := testServerCfg(t, Config{
		Workers: 2, QueueCap: 16, CacheCap: 32,
		DefaultTimeLimit: 20 * time.Second, StreamHeartbeat: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		streamURL(ts, trainingSpec(24), 8, "time_limit_ms=60000"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	heartbeats := 0
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(15 * time.Second)
	for heartbeats < 2 && sc.Scan() {
		if strings.HasPrefix(sc.Text(), ":") {
			heartbeats++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if heartbeats < 2 {
		t.Fatalf("saw %d heartbeats on an idle stream, want >= 2", heartbeats)
	}
}

func TestStreamBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		url  string
	}{
		{"no workload", ts.URL + "/v1/solve/stream?budget=6"},
		{"zero budget", streamURL(ts, chainSpec(4), 0, "")},
		{"bad graph json", ts.URL + "/v1/solve/stream?budget=6&graph=%7Bnope"},
		{"bad solver", streamURL(ts, chainSpec(4), 6, "solver=approx")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
	// POST is not the streaming verb.
	resp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestStreamInfeasibleBudget: solver failures arrive as a done frame with
// the error and the HTTP status the blocking endpoint would have used.
func TestStreamInfeasibleBudget(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(streamURL(ts, chainSpec(10), 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d (stream errors arrive in-band)", resp.StatusCode)
	}
	frames, _ := readSSE(t, resp.Body)
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}
	last := frames[len(frames)-1]
	if last.Event != api.StreamEventDone {
		t.Fatalf("terminal frame %q", last.Event)
	}
	var done api.StreamDone
	if err := json.Unmarshal(last.Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Error == "" || done.Status != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible stream done frame: %+v", done)
	}
}
