// Package server is SubZero's lineage-as-a-service layer: an HTTP/JSON
// API over the public System, exposing workflow execution, run lifecycle,
// lineage queries (single and batched over the System's worker pool),
// optimizer runs, and introspection.
//
// Design points, following the SMOKE argument that fine-grained lineage
// earns its keep only when external consumers get answers at interactive
// speed:
//
//   - Every request's context flows into the System's cancellation paths,
//     so a client that disconnects mid-query aborts operator re-execution
//     at the next boundary instead of burning the worker pool.
//   - A bounded in-flight cap sheds load with 503s instead of queueing
//     unboundedly; /v1/healthz flips to "draining" before shutdown so load
//     balancers stop routing while active queries drain.
//   - Errors are structured (subzero.WireError) and every request is
//     logged with its latency.
//
// Like the lineage it serves, the daemon's state is a recoverable cache:
// runs live in memory (and their lineage optionally in log files) and can
// always be re-created by re-executing the named workflow.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"subzero"
	"subzero/internal/fault"
	"subzero/internal/kvstore"
	"subzero/internal/obs"
	"subzero/internal/trace"
)

// fpHandler aborts a request at the top of its handler: armed with a
// panic action it exercises the containment middleware; armed with an
// error action it produces a plain 500. Tests arm it to prove one
// poisoned request never takes the daemon down.
var fpHandler = fault.Register("server/handler")

// DefaultMaxInFlight bounds concurrently served heavy requests when the
// config leaves MaxInFlight unset.
const DefaultMaxInFlight = 64

// maxBodyBytes caps request bodies; query batches are the largest
// legitimate payloads and stay far below this.
const maxBodyBytes = 32 << 20

// Config assembles a Server.
type Config struct {
	// System is the lineage system to serve. Required.
	System *subzero.System
	// Catalog names the workflows the service may execute; nil selects
	// DefaultCatalog.
	Catalog *Catalog
	// MaxInFlight bounds concurrently served heavy requests (execute,
	// query, query-batch, optimize, drop); excess requests are rejected
	// with 503. <= 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// Logger receives structured records (slow queries, write failures),
	// each carrying trace and run IDs when available; nil disables
	// logging entirely.
	Logger *slog.Logger
	// Obs is the metric set /v1/metrics exposes and the HTTP layer
	// records into. Nil selects the System's own set, so serving metrics
	// land in the same exposition as query/kvstore metrics.
	Obs *obs.Set
	// Tracer samples and retains request span trees served at /v1/traces.
	// Nil selects an always-sample tracer whose slow threshold follows
	// SlowQuery.
	Tracer *trace.Tracer
	// SlowQuery, when > 0, logs one structured line per lineage query
	// whose end-to-end latency reaches the threshold.
	SlowQuery time.Duration
	// QueryTimeout, when > 0, bounds each query and query-batch request:
	// the request context gets a server-imposed deadline, and a query
	// that exceeds it fails with 504 (distinguishable from a client
	// disconnect, which stays a cancellation).
	QueryTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU to capture.
	EnablePprof bool
}

// Metrics is a point-in-time snapshot of the serving counters, read from
// obs.HTTPObs — the same series /v1/metrics exposes.
type Metrics struct {
	Requests     int64 // requests answered, any status
	InFlight     int64 // heavy requests currently executing
	Rejected     int64 // requests shed by the in-flight cap or drain
	Cancelled    int64 // requests aborted by client disconnect/timeout
	ClientErrors int64 // 4xx responses
	ServerErrors int64 // 5xx responses
}

// Server is the HTTP handler for the lineage service.
type Server struct {
	sys          *subzero.System
	catalog      *Catalog
	mux          *http.ServeMux
	sem          chan struct{}
	logger       *slog.Logger
	obs          *obs.Set
	tracer       *trace.Tracer
	slowQuery    time.Duration
	queryTimeout time.Duration
	started      time.Time

	draining atomic.Bool
	// drainDeadline is the unix-nano instant the drain window closes
	// (0 when Drain was called without one); shed clients get a
	// Retry-After spanning the remainder.
	drainDeadline atomic.Int64
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("server: config needs a System")
	}
	if cfg.Catalog == nil {
		cfg.Catalog = DefaultCatalog()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Obs == nil {
		cfg.Obs = cfg.System.Observability()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewSet()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New(trace.Config{Sample: 1, Slow: cfg.SlowQuery})
	}
	s := &Server{
		sys:          cfg.System,
		catalog:      cfg.Catalog,
		mux:          http.NewServeMux(),
		sem:          make(chan struct{}, cfg.MaxInFlight),
		logger:       cfg.Logger,
		obs:          cfg.Obs,
		tracer:       cfg.Tracer,
		slowQuery:    cfg.SlowQuery,
		queryTimeout: cfg.QueryTimeout,
		started:      time.Now(),
	}
	s.handle("GET /v1/healthz", s.handleHealth)
	s.handle("GET /v1/metrics", s.handleMetrics)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/traces", s.handleListTraces)
	s.handle("GET /v1/traces/{id}", s.handleGetTrace)
	s.handle("GET /v1/workflows", s.handleWorkflows)
	s.handle("GET /v1/runs", s.handleListRuns)
	s.handle("GET /v1/runs/{id}", s.handleGetRun)
	s.handle("POST /v1/runs", s.limited(s.handleExecute))
	s.handle("DELETE /v1/runs/{id}", s.limited(s.handleDropRun))
	s.handle("POST /v1/runs/{id}/query", s.limited(s.handleQuery))
	s.handle("POST /v1/runs/{id}/query-batch", s.limited(s.handleQueryBatch))
	s.handle("POST /v1/runs/{id}/optimize", s.limited(s.handleOptimize))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
	return s, nil
}

// handle registers a route with per-endpoint request counting, latency
// histograms, and the root trace span. The metric series are resolved
// once here, so the untraced per-request cost is two atomic updates — no
// label lookups on the hot path.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	requests := s.obs.HTTP.Requests.With1(pattern)
	latency := s.obs.HTTP.Latency.With1(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Root span: an incoming W3C traceparent propagates the caller's
		// trace ID (and its sampled flag forces sampling); the response
		// echoes this request's own position in the tree so callers can
		// stitch. StartRequest returns nil when unsampled — every use
		// below is nil-safe and allocation-free.
		sp := s.tracer.StartRequest(pattern, r.Header.Get("Traceparent"))
		if sp != nil {
			sp.SetClass(obs.SpanHTTP)
			w.Header().Set("Traceparent", sp.Traceparent())
			r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
		}
		s.invoke(pattern, h, sp, w, r)
		if rec, ok := w.(*statusRecorder); ok && sp != nil {
			sp.SetAttrInt("status", int64(rec.status))
		}
		sp.End()
		requests.Inc()
		latency.ObserveSince(start)
	})
}

// invoke runs one handler with panic containment. A panicking handler —
// an operator bug reached through query re-execution, a poisoned
// request, an armed failpoint — must cost exactly one 500, not the
// daemon: the panic is logged with its stack and, when the response has
// not started, answered with a structured error carrying the trace ID.
// A response already underway is left alone (the status line is gone;
// the client sees a truncated body and the connection is reused or
// closed by net/http as appropriate).
func (s *Server) invoke(pattern string, h http.HandlerFunc, sp *trace.Span, w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		perr := fault.AsError("handler "+pattern, rec)
		if s.logger != nil {
			s.logger.Error("handler panic",
				"pattern", pattern,
				"trace_id", sp.TraceIDString(),
				"err", perr,
				"stack", string(perr.Stack))
		}
		if sr, ok := w.(*statusRecorder); ok && sr.wrote {
			// The status line is gone, but ServeHTTP's by-status accounting
			// must still see a server fault, not whatever the handler
			// managed to write before dying.
			sr.status = http.StatusInternalServerError
			return
		}
		s.writeErrorTraced(w, sp.TraceIDString(), http.StatusInternalServerError, "%v", perr)
	}()
	if err := fault.Inject(fpHandler); err != nil {
		s.writeErrorTraced(w, sp.TraceIDString(), http.StatusInternalServerError, "%v", err)
		return
	}
	h(w, r)
}

// ServeHTTP implements http.Handler with request accounting. Individual
// requests are not logged — latency lands in the per-endpoint histograms
// (see Summary and /v1/metrics); only slow queries get their own line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	switch {
	case rec.status >= 500:
		s.obs.HTTP.ServerErrors.Inc()
	case rec.status >= 400:
		s.obs.HTTP.ClientErrors.Inc()
	default:
		s.obs.HTTP.OK.Inc()
	}
}

// Drain marks the server as draining: health checks flip to 503 and new
// heavy requests are rejected, while requests already in flight run to
// completion. Call before http.Server.Shutdown.
func (s *Server) Drain() { s.DrainFor(0) }

// DrainFor is Drain with the drain window recorded: shed clients get a
// Retry-After spanning the window's remainder, after which a restarted
// (or failed-over) instance can serve them. timeout <= 0 records no
// deadline and rejections fall back to the slot-turnover estimate.
func (s *Server) DrainFor(timeout time.Duration) {
	if timeout > 0 {
		s.drainDeadline.Store(time.Now().Add(timeout).UnixNano())
	}
	s.draining.Store(true)
}

// MetricsSnapshot returns the current serving counters.
func (s *Server) MetricsSnapshot() Metrics {
	h := &s.obs.HTTP
	m := Metrics{
		InFlight:     h.InFlight.Load(),
		Rejected:     h.Shed.Load(),
		Cancelled:    h.Cancelled.Load(),
		ClientErrors: h.ClientErrors.Load(),
		ServerErrors: h.ServerErrors.Load(),
	}
	m.Requests = h.OK.Load() + m.ClientErrors + m.ServerErrors
	return m
}

// Summary returns a one-line serving digest for periodic logging: request
// totals from the serving counters plus query latency quantiles pulled
// from the observation histograms. Cheap enough to call every few seconds.
func (s *Server) Summary() string {
	m := s.MetricsSnapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d inflight=%d shed=%d cancelled=%d 4xx=%d 5xx=%d",
		m.Requests, m.InFlight, m.Rejected, m.Cancelled, m.ClientErrors, m.ServerErrors)
	for i, class := range []string{"backward", "forward"} {
		snap := s.obs.Query.Latency[i].Snapshot()
		if snap.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, " | %s n=%d p50=%s p95=%s p99=%s", class, snap.Count,
			time.Duration(snap.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(snap.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(snap.Quantile(0.99)).Round(time.Microsecond))
	}
	return b.String()
}

// statusRecorder captures the response status for logging and metrics,
// and whether the response has started — the panic middleware may only
// substitute a structured 500 while nothing has been written.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.wrote = true
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// limited enforces the bounded in-flight cap and the drain flag around a
// heavy handler.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.obs.HTTP.Shed.Inc()
			w.Header().Set("Retry-After", s.retryAfterDraining())
			s.writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.obs.HTTP.Shed.Inc()
			w.Header().Set("Retry-After", s.retryAfterCapacity())
			s.writeError(w, http.StatusServiceUnavailable, "server at capacity (%d requests in flight)", cap(s.sem))
			return
		}
		s.obs.HTTP.InFlight.Add(1)
		defer func() {
			s.obs.HTTP.InFlight.Add(-1)
			<-s.sem
		}()
		h(w, r)
	}
}

// retryAfterCapacity estimates how long a shed client should wait for an
// in-flight slot to free. With every slot busy, the expected time until
// the first of them finishes is roughly the median query latency divided
// by the number in flight; with no latency history yet the 1s floor
// applies. Clamped to [1, 30] seconds — Retry-After is advice, not a
// schedule, and a stale large value parks clients for no reason.
func (s *Server) retryAfterCapacity() string {
	var p50 int64
	for i := range s.obs.Query.Latency {
		snap := s.obs.Query.Latency[i].Snapshot()
		if snap.Count == 0 {
			continue
		}
		if q := snap.Quantile(0.50); q > p50 {
			p50 = q
		}
	}
	inFlight := s.obs.HTTP.InFlight.Load()
	if inFlight < 1 {
		inFlight = 1
	}
	secs := int64(time.Duration(p50/inFlight) / time.Second)
	return clampRetrySeconds(secs, 30)
}

// retryAfterDraining spans the remaining drain window when DrainFor
// recorded one — the earliest a replacement instance can be listening —
// and otherwise falls back to the capacity estimate.
func (s *Server) retryAfterDraining() string {
	deadline := s.drainDeadline.Load()
	if deadline == 0 {
		return s.retryAfterCapacity()
	}
	secs := int64(time.Until(time.Unix(0, deadline)) / time.Second)
	return clampRetrySeconds(secs, 60)
}

func clampRetrySeconds(secs, max int64) string {
	if secs < 1 {
		secs = 1
	}
	if secs > max {
		secs = max
	}
	return strconv.FormatInt(secs, 10)
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	degraded := s.sys.DegradedStores()
	healing := 0
	for _, d := range degraded {
		if d.Healing {
			healing++
		}
	}
	health := subzero.WireHealth{
		Status:         "ok",
		UptimeNS:       time.Since(s.started).Nanoseconds(),
		Runs:           len(s.sys.Runs()),
		InFlight:       s.obs.HTTP.InFlight.Load(),
		DegradedStores: len(degraded),
		HealingStores:  healing,
	}
	status := http.StatusOK
	if s.draining.Load() {
		health.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, health)
}

// handleMetrics serves the full metric set in Prometheus text exposition
// format 0.0.4 — hand-rolled, no client library involved. Scrapers that
// advertise OpenMetrics support in Accept get the 1.0.0 exposition
// instead, which carries trace-ID exemplars on histogram buckets; the
// plain 0.0.4 body never does, so older parsers are unaffected.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var err error
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		err = s.obs.Registry.WriteOpenMetrics(w)
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		err = s.obs.Registry.WriteProm(w)
	}
	if err != nil && s.logger != nil {
		s.logger.Error("write metrics", "err", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	all := s.sys.AllStats()
	ops := make([]subzero.WireOpStats, len(all))
	for i, st := range all {
		ops[i] = subzero.NewWireOpStats(st)
	}
	m := s.MetricsSnapshot()
	s.writeJSON(w, http.StatusOK, subzero.WireStats{
		Runs:         len(s.sys.Runs()),
		LineageBytes: s.sys.LineageBytes(),
		ArrayBytes:   s.sys.ArrayBytes(),
		Ops:          ops,
		Server: subzero.WireServerMetrics{
			Requests:     m.Requests,
			InFlight:     m.InFlight,
			Rejected:     m.Rejected,
			Cancelled:    m.Cancelled,
			ClientErrors: m.ClientErrors,
			ServerErrors: m.ServerErrors,
		},
		Workload: subzero.NewWireWorkloadProfile(s.obs),
		Degraded: subzero.NewWireDegradedStores(s.sys.DegradedStores()),
		Heals:    wireHealStats(s.sys),
		Stores:   subzero.NewWireStoreStats(s.sys.StoreInventory()),
	})
}

func wireHealStats(sys *subzero.System) subzero.WireHealStats {
	attempts, successes, failures := sys.HealCounts()
	return subzero.WireHealStats{Attempts: attempts, Successes: successes, Failures: failures}
}

// handleListTraces serves summaries of retained traces, newest first.
// Query params: run, direction, min_duration_ns, slow (true/1), limit.
func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := trace.Filter{
		Run:       q.Get("run"),
		Direction: q.Get("direction"),
	}
	if v := q.Get("min_duration_ns"); v != "" {
		ns, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ns < 0 {
			s.writeError(w, http.StatusBadRequest, "min_duration_ns must be a non-negative integer, got %q", v)
			return
		}
		f.MinDuration = time.Duration(ns)
	}
	if v := q.Get("slow"); v != "" {
		slow, err := strconv.ParseBool(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "slow must be a boolean, got %q", v)
			return
		}
		f.SlowOnly = slow
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", v)
			return
		}
		f.Limit = n
	}
	traces := s.tracer.List(f)
	out := make([]subzero.WireTraceSummary, len(traces))
	for i, t := range traces {
		out[i] = subzero.NewWireTraceSummary(t)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleGetTrace serves one retained trace as a full span tree.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, ok := trace.ParseTraceID(raw)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "malformed trace id %q: want 32 hex characters", raw)
		return
	}
	t := s.tracer.Get(id)
	if t == nil {
		s.writeError(w, http.StatusNotFound, "trace %s is not retained", raw)
		return
	}
	s.writeJSON(w, http.StatusOK, subzero.NewWireTrace(t))
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	list := s.catalog.List()
	out := make([]subzero.WireWorkflowInfo, len(list))
	for i, wf := range list {
		out[i] = subzero.WireWorkflowInfo{
			Name:        wf.Name,
			Description: wf.Description,
			Plans:       wf.Plans,
			DefaultPlan: wf.DefaultPlan,
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req subzero.WireExecuteRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Workflow == "" {
		s.writeError(w, http.StatusBadRequest, "request names no workflow")
		return
	}
	wf, err := s.catalog.Get(req.Workflow)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	plan, err := resolvePlan(wf, req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, sources, err := wf.Build(req.Scale, req.Seed)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, err := s.sys.Execute(r.Context(), spec, plan, sources)
	if err != nil {
		s.writeSystemError(w, r, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+run.ID)
	s.writeJSON(w, http.StatusCreated, subzero.NewWireRunInfo(run))
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	ids := s.sys.Runs()
	out := make([]*subzero.WireRunInfo, 0, len(ids))
	for _, id := range ids {
		run, err := s.sys.Run(id)
		if err != nil {
			continue // dropped between list and get
		}
		out = append(out, subzero.NewWireRunInfo(run))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.resolveRun(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, subzero.NewWireRunInfo(run))
}

func (s *Server) handleDropRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sys.DropRun(id); err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	run, ok := s.resolveRun(w, r)
	if !ok {
		return
	}
	var req subzero.WireQueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := req.Query.Query()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.sys.ValidateQuery(run, q); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	res, err := s.sys.QueryWith(ctx, run, q, req.Options.Options())
	if err != nil {
		s.writeSystemError(w, r, err)
		return
	}
	s.logSlowQuery(r.Context(), run.ID, q, res)
	s.writeJSON(w, http.StatusOK, subzero.NewWireQueryResult(res))
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	run, ok := s.resolveRun(w, r)
	if !ok {
		return
	}
	var req subzero.WireBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch contains no queries")
		return
	}
	queries := make([]subzero.Query, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.Query()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		queries[i] = q
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	br, err := s.sys.QueryBatch(ctx, run, queries, req.Options.Options())
	if err != nil {
		s.writeSystemError(w, r, err)
		return
	}
	// A batch whose every query died on the request context counts as a
	// cancelled request even though QueryBatch itself returned no error.
	if ctxErr := r.Context().Err(); ctxErr != nil && br.Report.Failed == br.Report.Queries {
		s.obs.HTTP.Cancelled.Inc()
	}
	resp := subzero.WireBatchResponse{
		Results: make([]*subzero.WireQueryResult, len(queries)),
		Errors:  make([]string, len(queries)),
		Report:  subzero.NewWireBatchReport(br.Report),
	}
	for i := range queries {
		if br.Errs[i] != nil {
			resp.Errors[i] = br.Errs[i].Error()
			continue
		}
		s.logSlowQuery(r.Context(), run.ID, queries[i], br.Results[i])
		resp.Results[i] = subzero.NewWireQueryResult(br.Results[i])
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// logSlowQuery emits one structured record for a query whose latency
// reached the slow-query threshold, including the access path every step
// took — enough to see which operator and strategy dragged without
// re-running the query under a profiler. The request's trace is marked
// slow so the retention layer pins it regardless of eviction pressure.
func (s *Server) logSlowQuery(ctx context.Context, runID string, q subzero.Query, res *subzero.QueryResult) {
	if s.slowQuery <= 0 || res == nil || res.Elapsed < s.slowQuery {
		return
	}
	sp := trace.FromContext(ctx)
	sp.MarkSlow()
	if s.logger == nil {
		return
	}
	var steps strings.Builder
	for i, st := range res.Steps {
		if i > 0 {
			steps.WriteByte(',')
		}
		fmt.Fprintf(&steps, "%s[%d]:%s:%s", st.Node, st.InputIdx, st.AccessPath,
			st.Elapsed.Round(time.Microsecond))
	}
	s.logger.Warn("slow-query",
		"trace_id", sp.TraceIDString(),
		"run", runID,
		"direction", q.Direction.String(),
		"cells", len(q.Cells),
		"elapsed", res.Elapsed.Round(time.Microsecond),
		"steps", steps.String())
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	run, ok := s.resolveRun(w, r)
	if !ok {
		return
	}
	var req subzero.WireOptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	workload := make([]subzero.Query, len(req.Workload))
	for i, wq := range req.Workload {
		q, err := wq.Query()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "workload query %d: %v", i, err)
			return
		}
		workload[i] = q
	}
	forced := make(map[string][]subzero.Strategy, len(req.Forced))
	for node, names := range req.Forced {
		for _, name := range names {
			strat, err := subzero.ParseStrategy(name)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "forced strategy for %q: %v", node, err)
				return
			}
			forced[node] = append(forced[node], strat)
		}
	}
	rep, err := s.sys.OptimizeForced(r.Context(), run, workload, req.Constraints.Constraints(), forced)
	if err != nil {
		if isCancellation(r, err) {
			s.abortCancelled(w, r, err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, subzero.NewWireOptimizeReport(rep))
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

// queryContext derives the execution context for a query handler: the
// request context (so client disconnects still cancel) bounded by the
// configured server-side query timeout, when one is set.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.queryTimeout)
}

// resolveRun maps the {id} path segment to a registered run, writing a
// structured 404 when it is unknown.
func (s *Server) resolveRun(w http.ResponseWriter, r *http.Request) (*subzero.Run, bool) {
	id := r.PathValue("id")
	run, err := s.sys.Run(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	return run, true
}

// decode reads a JSON body into dst, writing a structured 400 on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			s.writeError(w, http.StatusBadRequest, "request body is empty")
			return false
		}
		s.writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

// isCancellation reports whether err is the request context dying under a
// System call — the wrapped ctx.Err() of the cancellation paths.
func isCancellation(r *http.Request, err error) bool {
	if r.Context().Err() == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// StatusClientClosedRequest is the non-standard (nginx) status the server
// records when a client disconnect aborts work mid-flight; the client is
// gone, so the code is for logs and metrics rather than the wire.
const StatusClientClosedRequest = 499

// abortCancelled accounts for a request whose client went away mid-query.
func (s *Server) abortCancelled(w http.ResponseWriter, r *http.Request, err error) {
	s.obs.HTTP.Cancelled.Inc()
	s.writeError(w, StatusClientClosedRequest, "request cancelled: %v", err)
}

// writeSystemError maps a System error onto the wire: cancellations are
// accounted separately; a query that raced a DropRun fails on the run's
// closed lineage store and becomes a 404 rather than a server fault;
// everything else is a 500.
func (s *Server) writeSystemError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case isCancellation(r, err):
		s.abortCancelled(w, r, err)
	case errors.Is(err, context.DeadlineExceeded):
		// The request context is alive (isCancellation said no), so the
		// deadline that fired is the server's own query timeout.
		s.writeError(w, http.StatusGatewayTimeout,
			"query exceeded the server query timeout (%s): %v", s.queryTimeout, err)
	case errors.Is(err, kvstore.ErrClosed):
		s.writeError(w, http.StatusNotFound, "run was dropped mid-request: %v", err)
	default:
		s.writeErrorTraced(w, trace.FromContext(r.Context()).TraceIDString(),
			http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeErrorTraced(w, "", status, format, args...)
}

// writeErrorTraced is writeError carrying the request's trace ID, quoted
// on server faults so a client report resolves to evidence at
// /v1/traces/{id} while the trace is retained.
func (s *Server) writeErrorTraced(w http.ResponseWriter, traceID string, status int, format string, args ...any) {
	s.writeJSON(w, status, subzero.WireError{Error: subzero.WireErrorBody{
		Status:  status,
		Message: fmt.Sprintf(format, args...),
		TraceID: traceID,
	}})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil && s.logger != nil {
		s.logger.Error("encode response", "err", err)
	}
}
