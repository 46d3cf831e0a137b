// Package client is a small Go client for the rematerialization-planning
// service (internal/service). Training jobs use it to fetch schedules by
// model name or serialized graph and decode the returned execution plan.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/schedule"
	"repro/internal/service/api"
)

// sharedTransport backs every Client constructed without an explicit
// *http.Client. One transport per process — not per Client — so a fleet of
// clients pools connections instead of leaking idle sockets per instance.
// Every stage of a request that can hang silently has its own bound (dial,
// TLS, response headers); only the solve itself is open-ended, and that is
// the caller's context's job. ResponseHeaderTimeout must exceed the
// server's -max-timelimit: a blocking /v1/solve sends no bytes until the
// solve finishes.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	TLSHandshakeTimeout:   5 * time.Second,
	ResponseHeaderTimeout: 15 * time.Minute,
	ExpectContinueTimeout: time.Second,
	MaxIdleConns:          64,
	MaxIdleConnsPerHost:   16,
	IdleConnTimeout:       90 * time.Second,
}

var defaultHTTPClient = &http.Client{Transport: sharedTransport}

// APIError is a non-2xx reply from the service, carrying the HTTP status
// and the server's error message. All client methods return it (wrapped)
// for protocol-level failures, so callers can branch on status — most
// usefully via IsOverloaded for 503 shed-load retries.
type APIError struct {
	StatusCode int
	Message    string
	// RequestID is the server-assigned X-Request-ID of the failed request;
	// quote it when filing reports so the failure can be found in the
	// server's structured logs.
	RequestID string
	// RetryAfter is the server's Retry-After hint (zero when the response
	// carried none). The service sets it on 503 load-shed responses, sized
	// to the projected solver backlog; WithRetry honors it automatically.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = fmt.Sprintf("HTTP %d", e.StatusCode)
	} else {
		msg = fmt.Sprintf("%s (HTTP %d)", e.Message, e.StatusCode)
	}
	if e.RequestID != "" {
		msg += fmt.Sprintf(" [request %s]", e.RequestID)
	}
	return msg
}

// IsOverloaded reports whether err is the service shedding load (HTTP 503:
// admission control rejected the solve, or the queue is full). Such requests
// are safe to retry after a backoff — the instance is healthy, just busy.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable
}

// RetryPolicy opts the client in to retrying transient failures: transport
// errors and 503 load-shed responses (the server is healthy, just busy or
// draining). Waits grow exponentially from BaseDelay and are jittered to
// [50%, 100%] so a fleet of training jobs does not retry in lockstep; a
// larger server Retry-After hint overrides the computed wait. Non-transient
// failures (4xx, 500, 504) are never retried — the request itself is the
// problem, or the server already spent a full time limit on it.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, the first included (default 3;
	// 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 200ms).
	BaseDelay time.Duration
	// MaxDelay caps any single computed wait (default 10s). A longer server
	// Retry-After still wins: the server knows its backlog.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Second
	}
	return p
}

// Option configures New.
type Option func(*Client)

// WithRetry enables automatic retries of transient failures per policy.
// Retries apply to the JSON endpoints (Solve, Sweep, Stats, ...); the SSE
// stream is not retried — reconnect with SolveStream's lastEventID instead,
// which resumes the in-flight solve without replaying frames.
func WithRetry(policy RetryPolicy) Option {
	return func(c *Client) {
		p := policy.withDefaults()
		c.retry = &p
	}
}

// Client talks to a planning service: one server, or — via NewMulti — a
// fleet of equivalent endpoints with automatic failover between them.
type Client struct {
	bases []string
	http  *http.Client
	retry *RetryPolicy // nil = no retries

	mu  sync.Mutex
	cur int // index into bases of the currently preferred endpoint
}

// New returns a client for the server at base (e.g. "http://localhost:8780").
// httpClient may be nil to use the package's shared pooled transport (sane
// per-host connection limits, explicit dial/TLS/response-header timeouts);
// pass your own when you need different bounds.
func New(base string, httpClient *http.Client, opts ...Option) *Client {
	c, _ := NewMulti([]string{base}, httpClient, opts...)
	return c
}

// NewMulti returns a client over several equivalent endpoints — a fleet of
// planners fronted by nothing. Requests go to one preferred endpoint; a
// transient failure there (transport error, or 503 from a draining or
// overloaded peer) rotates the preference to the next base before the next
// retry, so a dead or draining peer costs one backoff, not the whole retry
// budget. Combine with WithRetry, or the first failure is simply returned.
func NewMulti(bases []string, httpClient *http.Client, opts ...Option) (*Client, error) {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	c := &Client{http: httpClient}
	for _, b := range bases {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			c.bases = append(c.bases, b)
		}
	}
	if len(c.bases) == 0 {
		return nil, errors.New("client: no base URLs")
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// base returns the currently preferred endpoint.
func (c *Client) base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.cur]
}

// failover rotates the preferred endpoint off from. The check-then-advance
// keeps concurrent failures of one endpoint from skipping past healthy ones.
// Returns true when the next request will target a different endpoint.
func (c *Client) failover(from string) bool {
	if len(c.bases) < 2 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bases[c.cur] == from {
		c.cur = (c.cur + 1) % len(c.bases)
	}
	return true
}

// retryAfter parses a Retry-After header's delay-seconds form (the form the
// service emits; HTTP-date is not supported and reads as zero).
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// transient reports whether err is worth retrying: a 503 (load shed or
// draining — the request is fine, the instance is busy) or a transport
// error. Context cancellation is the caller's decision, never transient.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusServiceUnavailable
	}
	return true // transport-level failure
}

// backoffWait computes the wait before retry attempt (0-based): jittered
// exponential from the policy, floored by the server's hint.
func (p RetryPolicy) backoffWait(attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay << attempt
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	return d
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		payload = b
	}
	for attempt := 0; ; attempt++ {
		base := c.base()
		err := c.doOnce(ctx, method, base, path, payload, in != nil, out)
		if err == nil || c.retry == nil || attempt+1 >= c.retry.MaxAttempts || !transient(err) {
			return err
		}
		var hint time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		// A draining peer's Retry-After describes *its* backlog. Once the
		// retry fails over to a different endpoint the hint is noise, and
		// honoring it would stall exactly the failover it was meant to speed.
		if c.failover(base) {
			hint = 0
		}
		t := time.NewTimer(c.retry.backoffWait(attempt, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("client: %s %s: %w (after %v)", method, path, ctx.Err(), err)
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, base, path string, payload []byte, hasBody bool, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		rid := e.RequestID
		if rid == "" {
			rid = resp.Header.Get("X-Request-ID")
		}
		return fmt.Errorf("client: %s %s: %w", method, path, &APIError{
			StatusCode: resp.StatusCode,
			Message:    e.Error,
			RequestID:  rid,
			RetryAfter: retryAfter(resp.Header),
		})
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// Solve requests one schedule.
func (c *Client) Solve(ctx context.Context, req api.SolveRequest) (*api.SolveResponse, error) {
	var out api.SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveStream requests one schedule over GET /v1/solve/stream, invoking fn
// for every SSE frame as it arrives — started, incumbent (the solver holds
// a new best feasible schedule), bound, and the terminal done. It returns
// the final schedule from the done frame, identical to what Solve would
// have returned for the same request. fn may be nil to stream for the
// result alone; lastEventID > 0 resumes an interrupted stream of the same
// in-flight solve without replaying frames already seen (pass the ID of
// the last frame received).
//
// With WithRetry, a dropped connection reconnects automatically: same
// endpoint, resuming from the last frame seen. A reconnect that lands on a
// different endpoint (multi-base failover) or follows a transient done-frame
// failure starts the stream over, so fn can see frames again — handlers must
// tolerate replays. The backoff between reconnect attempts honors ctx.
//
// Cancelling ctx mid-stream closes the connection; when this client is the
// solve's only watcher, the server abandons the solve.
func (c *Client) SolveStream(ctx context.Context, req api.SolveRequest, lastEventID int, fn func(api.StreamEvent)) (*api.SolveResponse, error) {
	q, err := api.EncodeQuery(req)
	if err != nil {
		return nil, err
	}
	done, err := c.stream(ctx, "/v1/solve/stream", q, lastEventID, fn)
	if err != nil {
		return nil, err
	}
	return done.Result, nil
}

// SweepStream runs one sweep over GET /v1/sweep/stream, invoking fn for
// every SSE frame — one "sweep_point" per completed budget, in completion
// order — and returns the final SweepResponse from the terminal done frame,
// identical to what Sweep would have returned. Reconnect and resume
// semantics match SolveStream.
func (c *Client) SweepStream(ctx context.Context, req api.SweepRequest, lastEventID int, fn func(api.StreamEvent)) (*api.SweepResponse, error) {
	q, err := api.EncodeQuery(req)
	if err != nil {
		return nil, err
	}
	done, err := c.stream(ctx, "/v1/sweep/stream", q, lastEventID, fn)
	if err != nil {
		return nil, err
	}
	if done.Sweep == nil {
		return nil, fmt.Errorf("client: sweep stream done frame carried no sweep result")
	}
	return done.Sweep, nil
}

// stream drives one SSE request to completion, redialing transient failures
// under the retry policy. The cursor tracks the last frame delivered to fn:
// a same-endpoint reconnect resumes behind it via Last-Event-ID, while a
// failover or a failed (transiently, e.g. 503 queue-full) stream resets it —
// the next attempt is a different instance or a fresh solve, whose event IDs
// share nothing with the old stream's.
func (c *Client) stream(ctx context.Context, path string, q url.Values, lastEventID int, fn func(api.StreamEvent)) (*api.StreamDone, error) {
	cursor := lastEventID
	for attempt := 0; ; attempt++ {
		base := c.base()
		done, err := c.streamOnce(ctx, base, path, q, &cursor, fn)
		fromDone := false
		if err == nil {
			if done.Error == "" {
				return done, nil
			}
			status := done.Status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			err = fmt.Errorf("client: streamed %s failed: %w", path,
				&APIError{StatusCode: status, Message: done.Error, RequestID: done.RequestID})
			fromDone = true
		}
		if c.retry == nil || attempt+1 >= c.retry.MaxAttempts || !transient(err) {
			return nil, err
		}
		var hint time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		if c.failover(base) {
			hint = 0
			cursor = 0
		}
		if fromDone {
			cursor = 0
		}
		t := time.NewTimer(c.retry.backoffWait(attempt, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("client: GET %s: %w (after %v)", path, ctx.Err(), err)
		}
	}
}

// streamOnce opens one SSE connection and reads it to the terminal done
// frame, advancing *cursor as frames are delivered so the caller can resume
// after a drop.
func (c *Client) streamOnce(ctx context.Context, base, path string, q url.Values, cursor *int, fn func(api.StreamEvent)) (*api.StreamDone, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path+"?"+q.Encode(), nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	httpReq.Header.Set("Accept", "text/event-stream")
	if *cursor > 0 {
		httpReq.Header.Set("Last-Event-ID", strconv.Itoa(*cursor))
	}
	resp, err := c.http.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		rid := e.RequestID
		if rid == "" {
			rid = resp.Header.Get("X-Request-ID")
		}
		return nil, fmt.Errorf("client: GET %s: %w", path, &APIError{StatusCode: resp.StatusCode, Message: e.Error, RequestID: rid, RetryAfter: retryAfter(resp.Header)})
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // plans can be large
	var ev api.StreamEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Event == "" {
				continue // heartbeat or stray separator
			}
			frame := ev
			ev = api.StreamEvent{}
			if frame.ID > 0 {
				*cursor = frame.ID
			}
			if fn != nil {
				fn(frame)
			}
			if frame.Event != api.StreamEventDone {
				continue
			}
			var done api.StreamDone
			if err := json.Unmarshal(frame.Data, &done); err != nil {
				return nil, fmt.Errorf("client: decoding done frame: %w", err)
			}
			return &done, nil
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "id:"):
			ev.ID, _ = strconv.Atoi(strings.TrimSpace(line[3:]))
		case strings.HasPrefix(line, "event:"):
			ev.Event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			ev.Data = json.RawMessage(strings.TrimSpace(line[5:]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading event stream: %w", err)
	}
	return nil, fmt.Errorf("client: event stream ended without a done frame")
}

// Sweep requests one workload at several budgets.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepResponse, error) {
	var out api.SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Models lists the zoo architecture names the server can solve.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var out api.ModelsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(out.Models))
	for _, m := range out.Models {
		names = append(names, m.Name)
	}
	return names, nil
}

// Methods lists the solver methods the server accepts — the legal values
// of api.SolveRequest.Method — with one-line descriptions.
func (c *Client) Methods(ctx context.Context) ([]api.MethodInfo, error) {
	var out api.MethodsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/methods", nil, &out); err != nil {
		return nil, err
	}
	return out.Methods, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// DecodePlan parses a SolveResponse's execution plan into the runnable
// schedule.Plan form.
func DecodePlan(resp *api.SolveResponse) (*schedule.Plan, error) {
	return schedule.ReadPlanJSON(bytes.NewReader(resp.Plan))
}
