package obs

import "time"

// Span classes for per-step query tracing. These are the executor's
// access-path kinds — a step's class is the kind of the candidate it
// chose (query.PathStore is SpanStore, ...) — plus "probe" for candidate
// enumeration and "other" for a step that failed before settling on one.
const (
	SpanProbe       = "probe"
	SpanEntireArray = "entire-array"
	SpanMap         = "map"
	SpanComposite   = "composite"
	SpanStore       = "store"
	SpanStoreScan   = "store-scan"
	SpanReexec      = "reexec"
	SpanOther       = "other"
)

// stepClasses lists the classes above in series order; SpanOther is last
// and absorbs any class ObserveStep does not know.
var stepClasses = [...]string{SpanProbe, SpanEntireArray, SpanMap,
	SpanComposite, SpanStore, SpanStoreScan, SpanReexec, SpanOther}

// Span classes for the layers above and below the executor, used by
// internal/trace span trees (they are not step classes, so
// ObserveStep never sees them). Every span a tracer emits must carry one
// of the SpanClasses() families — see CONTRIBUTING.
const (
	SpanHTTP    = "http"
	SpanQuery   = "query"
	SpanExecute = "execute"
	SpanNode    = "node"
	SpanKVProbe = "kvstore-probe"
)

// SpanClasses returns every valid trace span class. The executor families
// (probe..reexec) double as step-metric labels; the rest exist only in
// trace trees.
func SpanClasses() []string {
	return []string{
		SpanProbe, SpanEntireArray, SpanMap, SpanComposite, SpanStore,
		SpanStoreScan, SpanReexec, SpanOther,
		SpanHTTP, SpanQuery, SpanExecute, SpanNode, SpanKVProbe,
	}
}

// stepSeries couples the per-class step counter and latency histogram.
type stepSeries struct {
	count   *Counter
	latency *Histogram
}

// QueryObs instruments the query executor: workload mix, latency by
// direction, region locality, and per-class step counts and latency. It
// owns no clock: the executor measures a step (or a query) once and hands
// the same duration to its report, its trace span and these series.
type QueryObs struct {
	// Backward and Forward count completed query executions by direction.
	Backward *Counter
	Forward  *Counter
	// Latency holds per-direction query latency, indexed by
	// query.Direction (0 backward, 1 forward).
	Latency [2]*Histogram
	// Cells counts queried cells; RegionSpan observes the linear extent
	// (max cell - min cell + 1) of each query's region — the locality
	// signal the adaptive optimizer consumes.
	Cells      *Counter
	RegionSpan *Histogram
	// Steps and StepLatency trace path steps by span class; Fallbacks
	// counts steps that abandoned materialized lineage for re-execution.
	Steps       *CounterVec
	StepLatency *HistogramVec
	Fallbacks   *Counter
	// OperatorHits counts (node, access path) pairs — per-operator
	// strategy hit counts.
	OperatorHits *CounterVec

	// steps pre-resolves the Steps/StepLatency series of every step class,
	// indexed like stepClasses; read-only after newQueryObs.
	steps [len(stepClasses)]stepSeries
}

func newQueryObs(r *Registry) QueryObs {
	q := QueryObs{
		Steps: r.NewCounterVec("subzero_query_steps_total",
			"Query path steps executed, by span class.", Raw, "span"),
		StepLatency: r.NewHistogramVec("subzero_query_step_duration_seconds",
			"Latency of query path steps, by span class.", Nanos, "span"),
		Cells: r.NewCounter("subzero_query_cells_total",
			"Cells submitted across all lineage queries.", Raw),
		RegionSpan: r.NewHistogram("subzero_query_region_span_cells",
			"Linear extent (max-min+1 cell index) of each query region.", Raw),
		Fallbacks: r.NewCounter("subzero_query_fallbacks_total",
			"Query steps that fell back from materialized lineage to re-execution.", Raw),
		OperatorHits: r.NewCounterVec("subzero_query_operator_path_total",
			"Query step executions by workflow node and access path.", Raw, "node", "path"),
	}
	dirs := r.NewCounterVec("subzero_queries_total",
		"Completed lineage queries, by direction.", Raw, "direction")
	q.Backward = dirs.With1("backward")
	q.Forward = dirs.With1("forward")
	lat := r.NewHistogramVec("subzero_query_duration_seconds",
		"Lineage query latency, by direction.", Nanos, "direction")
	q.Latency[0] = lat.With1("backward")
	q.Latency[1] = lat.With1("forward")
	for i, class := range stepClasses {
		q.steps[i] = stepSeries{count: q.Steps.With1(class), latency: q.StepLatency.With1(class)}
	}
	return q
}

// ObserveStep counts one finished span of a step class — an executed path
// step, or a candidate enumeration (SpanProbe) — and observes its duration.
func (q *QueryObs) ObserveStep(class string, elapsed time.Duration) {
	i := len(stepClasses) - 1
	for j, c := range stepClasses {
		if c == class {
			i = j
			break
		}
	}
	q.steps[i].count.Inc()
	q.steps[i].latency.ObserveDuration(elapsed)
}

// RecordQuery records a completed query: direction mix, latency, cell
// count, and region extent (span = max-min+1 over the queried cells). A
// non-empty traceID (a sampled request) becomes the exemplar of the latency
// bucket covering elapsed, so a spike in subzero_query_duration_seconds
// points at a retained trace.
func (q *QueryObs) RecordQuery(direction int, elapsed time.Duration, cells []uint64, traceID string) {
	if direction == 0 {
		q.Backward.Inc()
	} else {
		q.Forward.Inc()
	}
	if direction < 0 || direction > 1 {
		direction = 0
	}
	q.Latency[direction].ObserveDuration(elapsed)
	q.Latency[direction].SetExemplar(int64(elapsed), traceID)
	q.Cells.Add(int64(len(cells)))
	if len(cells) > 0 {
		min, max := cells[0], cells[0]
		for _, c := range cells[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		q.RegionSpan.Observe(int64(max-min) + 1)
	}
}

// KVObs counts the key-value store layer's operations. Each store holds a
// pointer to it, so the lookup hot path pays only atomic adds.
type KVObs struct {
	GetBatches   *Counter
	PutBatches   *Counter
	Scans        *Counter
	KeysRead     *Counter
	KeysWritten  *Counter
	BytesRead    *Counter
	BytesWritten *Counter
	// GetBatchLatency and PutBatchLatency time whole batch calls,
	// including value decode work done in the caller's callback.
	GetBatchLatency *Histogram
	PutBatchLatency *Histogram
}

func newKVObs(r *Registry) KVObs {
	ops := r.NewCounterVec("subzero_kvstore_ops_total",
		"Key-value store operations, by op.", Raw, "op")
	keys := r.NewCounterVec("subzero_kvstore_keys_total",
		"Keys read or written through the key-value store.", Raw, "dir")
	bytes := r.NewCounterVec("subzero_kvstore_bytes_total",
		"Value bytes read or written through the key-value store.", Raw, "dir")
	return KVObs{
		GetBatches:   ops.With1("get_batch"),
		PutBatches:   ops.With1("put_batch"),
		Scans:        ops.With1("scan"),
		KeysRead:     keys.With1("read"),
		KeysWritten:  keys.With1("written"),
		BytesRead:    bytes.With1("read"),
		BytesWritten: bytes.With1("written"),
		GetBatchLatency: r.NewHistogram("subzero_kvstore_get_batch_seconds",
			"Latency of batched key-value reads (the lineage lookup hot path).", Nanos),
		PutBatchLatency: r.NewHistogram("subzero_kvstore_put_batch_seconds",
			"Latency of batched key-value writes (lineage flush group commits).", Nanos),
	}
}

// HTTPObs instruments the serving layer.
type HTTPObs struct {
	// Requests and Latency are labeled by route pattern; the server
	// resolves each endpoint's series at registration time.
	Requests *CounterVec
	Latency  *HistogramVec
	InFlight *Gauge
	// Shed counts requests rejected by the capacity gate or drain;
	// Cancelled counts requests abandoned by the client mid-flight.
	Shed      *Counter
	Cancelled *Counter
	// OK, ClientErrors and ServerErrors count every answered request once,
	// by response class (status < 400, 4xx, 5xx) — routed or not, so their
	// sum is the server's request total.
	OK           *Counter
	ClientErrors *Counter
	ServerErrors *Counter
}

func newHTTPObs(r *Registry) HTTPObs {
	responses := r.NewCounterVec("subzero_http_responses_total",
		"HTTP requests answered, by response class.", Raw, "class")
	return HTTPObs{
		Requests: r.NewCounterVec("subzero_http_requests_total",
			"HTTP requests served, by route.", Raw, "endpoint"),
		Latency: r.NewHistogramVec("subzero_http_request_duration_seconds",
			"HTTP request latency, by route.", Nanos, "endpoint"),
		InFlight: r.NewGauge("subzero_http_in_flight",
			"Requests currently being served."),
		Shed: r.NewCounter("subzero_http_shed_total",
			"Requests shed by the capacity gate or while draining.", Raw),
		Cancelled: r.NewCounter("subzero_http_cancelled_total",
			"Requests abandoned by the client before completion.", Raw),
		OK:           responses.With1("ok"),
		ClientErrors: responses.With1("client_error"),
		ServerErrors: responses.With1("server_error"),
	}
}

// Set is the process-wide observability surface: every metric family the
// serving path exports, pre-registered in one Registry. A
// System owns one Set; the server renders its Registry at /v1/metrics.
type Set struct {
	Registry *Registry
	Query    QueryObs
	KV       KVObs
	HTTP     HTTPObs
}

// NewSet builds a Set with every SubZero metric family registered.
func NewSet() *Set {
	r := NewRegistry()
	return &Set{
		Registry: r,
		Query:    newQueryObs(r),
		KV:       newKVObs(r),
		HTTP:     newHTTPObs(r),
	}
}
