// Package client is the typed Go client for SubZero's lineage service
// (internal/server, cmd/subzero-serve). It round-trips every endpoint
// using the wire DTOs of the root package, so query results fetched over
// HTTP are directly comparable with in-process System results.
//
// All methods take a context; cancelling it aborts the HTTP request,
// which in turn cancels the server-side operation at its next boundary —
// a disconnected client never keeps an operator re-execution running.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"subzero"
)

// DefaultTimeout bounds every request issued through the client's
// default *http.Client, so a hung server can never park a caller
// forever. WithHTTPClient replaces the client — and this bound —
// wholesale; per-call context deadlines compose with it (the earlier
// one wins).
const DefaultTimeout = 60 * time.Second

// Client talks to one lineage service.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// RetryPolicy governs automatic retries of idempotent calls that fail
// with a 503 (the server shedding load or draining) or a connection
// error. Non-idempotent calls (Execute) are never retried: the request
// may have been applied before the failure.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// <= 1 disables retries.
	MaxAttempts int
	// BaseDelay is the first backoff step; each retry doubles it, with
	// uniform jitter in [delay/2, delay) so synchronized clients spread
	// out. A server-provided Retry-After overrides the computed delay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (and any honored Retry-After).
	MaxDelay time.Duration
}

// DefaultRetryPolicy tries three times, backing off from 100ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test instrumentation). The default is an *http.Client
// bounded by DefaultTimeout.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetry replaces the retry policy; RetryPolicy{MaxAttempts: 1}
// disables retries entirely.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New creates a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{Timeout: DefaultTimeout},
		retry: DefaultRetryPolicy(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured non-2xx response from the service.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided message
	TraceID string // server-side trace ID, when the response carried one
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("subzero service: %s (http %d, trace %s)", e.Message, e.Status, e.TraceID)
	}
	return fmt.Sprintf("subzero service: %s (http %d)", e.Message, e.Status)
}

// IsNotFound reports whether err is an APIError with status 404.
func IsNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// ErrDeadline marks a call that died on a deadline — the per-call
// context's or the default HTTP client's DefaultTimeout. Returned errors
// match both ErrDeadline and context.DeadlineExceeded via errors.Is, so
// callers can distinguish "the server said no" from "the server never
// answered in time" without string matching.
var ErrDeadline = errors.New("subzero client: deadline exceeded")

// deadlineErr wraps a transport error that died on a deadline so it
// matches ErrDeadline while keeping context.DeadlineExceeded reachable
// through the original error chain.
func deadlineErr(method, path string, err error) error {
	return fmt.Errorf("%w: %s %s: %w", ErrDeadline, method, path, err)
}

type traceparentKey struct{}

// WithTraceparent returns a context carrying a W3C traceparent header
// value. Every request issued with the returned context propagates the
// header, so server-side spans join the caller's trace and the retained
// trace on the server shares the caller's trace ID. An empty header
// returns ctx unchanged.
func WithTraceparent(ctx context.Context, header string) context.Context {
	if header == "" {
		return ctx
	}
	return context.WithValue(ctx, traceparentKey{}, header)
}

func traceparentFrom(ctx context.Context) string {
	s, _ := ctx.Value(traceparentKey{}).(string)
	return s
}

// do issues a request and decodes the response into out (unless out is
// nil). Non-2xx responses become *APIError, preserving the server's
// structured message when present. Idempotent calls — every endpoint
// except Execute, whose POST registers a run — are retried per the
// client's RetryPolicy on 503s and connection errors.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doIdempotent(ctx, method, path, in, out, true)
}

func (c *Client) doIdempotent(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var blob []byte
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 || !idempotent {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.retryDelay(attempt, lastErr)); err != nil {
				return fmt.Errorf("client: %s %s: retry abandoned: %w", method, path, err)
			}
		}
		err := c.doOnce(ctx, method, path, blob, in != nil, out)
		if err == nil || !c.retryable(ctx, err) {
			return stripRetryAfter(err)
		}
		lastErr = err
	}
	return stripRetryAfter(lastErr)
}

// stripRetryAfter unwraps the internal Retry-After carrier so callers
// always see the bare *APIError, whatever the retry policy did with it.
func stripRetryAfter(err error) error {
	var ue *unavailableError
	if errors.As(err, &ue) {
		return ue.APIError
	}
	return err
}

// doOnce issues exactly one HTTP round trip. The body is rebuilt from
// the marshaled blob so retries never replay a drained reader.
func (c *Client) doOnce(ctx context.Context, method, path string, blob []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := traceparentFrom(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return deadlineErr(method, path, err)
		}
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var wire subzero.WireError
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		msg := strings.TrimSpace(string(blob))
		if err := json.Unmarshal(blob, &wire); err == nil && wire.Error.Message != "" {
			msg = wire.Error.Message
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: msg, TraceID: wire.Error.TraceID}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
				return &unavailableError{APIError: apiErr, retryAfter: time.Duration(secs) * time.Second}
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// unavailableError is a 503 carrying the server's Retry-After advice.
// It unwraps to the *APIError so errors.As sees the status as usual.
type unavailableError struct {
	*APIError
	retryAfter time.Duration
}

func (e *unavailableError) Unwrap() error { return e.APIError }

// retryable reports whether err is worth another attempt: a 503 (load
// shed, drain) or a connection-level failure. Deadline expiry is final —
// the caller's budget is spent — as is any other HTTP status: the server
// answered, and answered no.
func (c *Client) retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, ErrDeadline) || errors.Is(err, context.Canceled) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusServiceUnavailable
	}
	return true // connection error: nothing reached the server's handler
}

// retryDelay computes the wait before retry number attempt (1-based):
// the server's Retry-After when the last failure carried one, otherwise
// exponential backoff from BaseDelay with uniform jitter in
// [delay/2, delay), both capped at MaxDelay.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	var ue *unavailableError
	if errors.As(lastErr, &ue) && ue.retryAfter > 0 {
		return min(ue.retryAfter, c.retry.MaxDelay)
	}
	delay := c.retry.BaseDelay << (attempt - 1)
	if delay > c.retry.MaxDelay || delay <= 0 {
		delay = c.retry.MaxDelay
	}
	if delay <= 0 {
		return 0
	}
	half := delay / 2
	return half + rand.N(delay-half)
}

// sleepCtx waits d or until the context dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Health fetches GET /v1/healthz. A draining server answers 503, which
// surfaces as an *APIError with that status.
func (c *Client) Health(ctx context.Context) (*subzero.WireHealth, error) {
	var out subzero.WireHealth
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*subzero.WireStats, error) {
	var out subzero.WireStats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StoreStats fetches the per-store footprint inventory from
// GET /v1/stats: each lineage store's compressed vs logical bytes and
// the resulting compression ratio.
func (c *Client) StoreStats(ctx context.Context) ([]subzero.WireStoreStats, error) {
	stats, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return stats.Stores, nil
}

// WorkloadProfile fetches the server's live workload profile — the
// backward/forward mix, per-class latency quantiles, and per-operator
// access-path hit counts from GET /v1/stats.
func (c *Client) WorkloadProfile(ctx context.Context) (*subzero.WireWorkloadProfile, error) {
	stats, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return &stats.Workload, nil
}

// Metrics fetches GET /v1/metrics and returns the Prometheus text
// exposition as served. For structured access prefer Stats or
// WorkloadProfile.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: build request: %w", err)
	}
	if tp := traceparentFrom(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", fmt.Errorf("client: read /v1/metrics: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := strings.TrimSpace(string(blob))
		var wire subzero.WireError
		if err := json.Unmarshal(blob, &wire); err == nil && wire.Error.Message != "" {
			msg = wire.Error.Message
		}
		return "", &APIError{Status: resp.StatusCode, Message: msg}
	}
	return string(blob), nil
}

// TraceListOptions filters GET /v1/traces. The zero value lists the most
// recent traces with the server's default limit.
type TraceListOptions struct {
	Run         string        // only traces touching this run ID
	Direction   string        // "backward" or "forward"
	MinDuration time.Duration // only traces at least this long end-to-end
	SlowOnly    bool          // only traces pinned by the slow threshold
	Limit       int           // max summaries returned (server default 100)
}

// Traces lists retained trace summaries, newest first (GET /v1/traces).
func (c *Client) Traces(ctx context.Context, opts TraceListOptions) ([]subzero.WireTraceSummary, error) {
	q := url.Values{}
	if opts.Run != "" {
		q.Set("run", opts.Run)
	}
	if opts.Direction != "" {
		q.Set("direction", opts.Direction)
	}
	if opts.MinDuration > 0 {
		q.Set("min_duration_ns", strconv.FormatInt(opts.MinDuration.Nanoseconds(), 10))
	}
	if opts.SlowOnly {
		q.Set("slow", "true")
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := "/v1/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out []subzero.WireTraceSummary
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches one retained trace as a full span tree by its 32-hex-char
// trace ID (GET /v1/traces/{id}). A trace that was never sampled or has
// been evicted surfaces as an *APIError with status 404.
func (c *Client) Trace(ctx context.Context, id string) (*subzero.WireTrace, error) {
	var out subzero.WireTrace
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Workflows lists the server's executable workflow catalog.
func (c *Client) Workflows(ctx context.Context) ([]subzero.WireWorkflowInfo, error) {
	var out []subzero.WireWorkflowInfo
	if err := c.do(ctx, http.MethodGet, "/v1/workflows", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Execute runs a catalog workflow on the server (POST /v1/runs) and
// returns the registered run. Execute is the one non-idempotent call —
// a retry after an ambiguous failure could register a second run — so
// it is never retried automatically; callers who can tolerate
// duplicates retry by listing runs first.
func (c *Client) Execute(ctx context.Context, req subzero.WireExecuteRequest) (*subzero.WireRunInfo, error) {
	var out subzero.WireRunInfo
	if err := c.doIdempotent(ctx, http.MethodPost, "/v1/runs", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Runs lists every registered run.
func (c *Client) Runs(ctx context.Context) ([]*subzero.WireRunInfo, error) {
	var out []*subzero.WireRunInfo
	if err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Run fetches one run by ID.
func (c *Client) Run(ctx context.Context, id string) (*subzero.WireRunInfo, error) {
	var out subzero.WireRunInfo
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DropRun releases a run's lineage stores and array versions on the
// server (DELETE /v1/runs/{id}).
func (c *Client) DropRun(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/runs/"+url.PathEscape(id), nil, nil)
}

// Query executes one lineage query against a run. opts may be nil for the
// server's defaults (every optimization enabled).
func (c *Client) Query(ctx context.Context, runID string, q subzero.Query, opts *subzero.WireQueryOptions) (*subzero.WireQueryResult, error) {
	req := subzero.WireQueryRequest{Query: subzero.NewWireQuery(q), Options: opts}
	var out subzero.WireQueryResult
	if err := c.do(ctx, http.MethodPost, "/v1/runs/"+url.PathEscape(runID)+"/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryBatch executes many independent queries against a run over the
// server's bounded worker pool. The response is index-aligned with qs.
func (c *Client) QueryBatch(ctx context.Context, runID string, qs []subzero.Query, opts *subzero.WireQueryOptions) (*subzero.WireBatchResponse, error) {
	req := subzero.WireBatchRequest{Queries: make([]subzero.WireQuery, len(qs)), Options: opts}
	for i, q := range qs {
		req.Queries[i] = subzero.NewWireQuery(q)
	}
	var out subzero.WireBatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/runs/"+url.PathEscape(runID)+"/query-batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Optimize runs the strategy optimizer against a profiling run. forced
// pins strategies per node (node -> wire strategy names); it may be nil.
func (c *Client) Optimize(ctx context.Context, runID string, workload []subzero.Query, cons subzero.Constraints, forced map[string][]string) (*subzero.WireOptimizeReport, error) {
	req := subzero.WireOptimizeRequest{
		Workload:    make([]subzero.WireQuery, len(workload)),
		Constraints: subzero.NewWireConstraints(cons),
		Forced:      forced,
	}
	for i, q := range workload {
		req.Workload[i] = subzero.NewWireQuery(q)
	}
	var out subzero.WireOptimizeReport
	if err := c.do(ctx, http.MethodPost, "/v1/runs/"+url.PathEscape(runID)+"/optimize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
