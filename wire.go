// Wire-format DTOs: the JSON types exchanged by the lineage-as-a-service
// HTTP layer (internal/server) and its typed Go client (client). They live
// in the root package because they are part of SubZero's public surface:
// the stable, versioned representation of queries, results, plans, and
// constraints that survives across the network boundary.
//
// Durations travel as integer nanoseconds (the _ns suffix) and strategies
// as their paper names (see StrategyName / ParseStrategy), so payloads are
// self-describing and stable across client and server versions.

package subzero

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"subzero/internal/obs"
	"subzero/internal/trace"
)

// ---------------------------------------------------------------------
// Strategies and plans
// ---------------------------------------------------------------------

// strategyNames maps wire names to strategies in a fixed order so
// StrategyNames() is deterministic.
var strategyNames = []struct {
	name string
	s    Strategy
}{
	{"Blackbox", StratBlackbox},
	{"Map", StratMap},
	{"FullOne", StratFullOne},
	{"FullMany", StratFullMany},
	{"PayOne", StratPayOne},
	{"PayMany", StratPayMany},
	{"CompOne", StratCompOne},
	{"CompMany", StratCompMany},
	{"FullOneFwd", StratFullOneFwd},
	{"FullManyFwd", StratFullManyFwd},
}

// StrategyName returns the stable wire name of a strategy ("FullOne",
// "PayMany", "FullOneFwd", ...). Unknown strategies fall back to the
// diagnostic String() form.
func StrategyName(s Strategy) string {
	for _, e := range strategyNames {
		if e.s == s {
			return e.name
		}
	}
	return s.String()
}

// ParseStrategy resolves a wire name (case-insensitive) to a strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, e := range strategyNames {
		if strings.EqualFold(e.name, name) {
			return e.s, nil
		}
	}
	return Strategy{}, fmt.Errorf("subzero: unknown strategy %q", name)
}

// StrategyNames lists every wire strategy name in declaration order.
func StrategyNames() []string {
	out := make([]string, len(strategyNames))
	for i, e := range strategyNames {
		out[i] = e.name
	}
	return out
}

// WirePlan is the wire form of a Plan: node id -> strategy names.
type WirePlan map[string][]string

// NewWirePlan converts a Plan to its wire form.
func NewWirePlan(p Plan) WirePlan {
	if p == nil {
		return nil
	}
	out := make(WirePlan, len(p))
	for node, strategies := range p {
		names := make([]string, len(strategies))
		for i, s := range strategies {
			names[i] = StrategyName(s)
		}
		out[node] = names
	}
	return out
}

// Plan converts the wire form back to a Plan, validating every name.
func (w WirePlan) Plan() (Plan, error) {
	if w == nil {
		return nil, nil
	}
	out := make(Plan, len(w))
	for node, names := range w {
		strategies := make([]Strategy, len(names))
		for i, name := range names {
			s, err := ParseStrategy(name)
			if err != nil {
				return nil, fmt.Errorf("node %q: %w", node, err)
			}
			strategies[i] = s
		}
		out[node] = strategies
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

// Wire direction names.
const (
	WireBackward = "backward"
	WireForward  = "forward"
)

// WireStep is one path element of a wire query.
type WireStep struct {
	Node  string `json:"node"`
	Input int    `json:"input,omitempty"`
}

// WireQuery is the wire form of a lineage Query.
type WireQuery struct {
	Direction string     `json:"direction"`
	Cells     []uint64   `json:"cells"`
	Path      []WireStep `json:"path"`
}

// NewWireQuery converts a Query to its wire form.
func NewWireQuery(q Query) WireQuery {
	dir := WireBackward
	if q.Direction == Forward {
		dir = WireForward
	}
	steps := make([]WireStep, len(q.Path))
	for i, st := range q.Path {
		steps[i] = WireStep{Node: st.Node, Input: st.InputIdx}
	}
	return WireQuery{Direction: dir, Cells: q.Cells, Path: steps}
}

// Query converts the wire form back to a Query, validating the direction.
func (w WireQuery) Query() (Query, error) {
	var dir Direction
	switch strings.ToLower(w.Direction) {
	case WireBackward, "":
		dir = Backward
	case WireForward:
		dir = Forward
	default:
		return Query{}, fmt.Errorf("subzero: unknown query direction %q", w.Direction)
	}
	steps := make([]Step, len(w.Path))
	for i, st := range w.Path {
		steps[i] = Step{Node: st.Node, InputIdx: st.Input}
	}
	return Query{Direction: dir, Cells: w.Cells, Path: steps}, nil
}

// WireQueryOptions is the wire form of QueryOptions. Nil pointers (or a
// nil *WireQueryOptions) mean "use the default", which enables every
// optimization.
type WireQueryOptions struct {
	EntireArray *bool `json:"entire_array,omitempty"`
	Dynamic     *bool `json:"dynamic,omitempty"`
}

// Options resolves the wire form against the defaults.
func (w *WireQueryOptions) Options() QueryOptions {
	opts := DefaultQueryOptions()
	if w == nil {
		return opts
	}
	if w.EntireArray != nil {
		opts.EntireArray = *w.EntireArray
	}
	if w.Dynamic != nil {
		opts.Dynamic = *w.Dynamic
	}
	return opts
}

// WireStepReport is the wire form of one per-step query diagnostic.
type WireStepReport struct {
	Node       string `json:"node"`
	Input      int    `json:"input"`
	AccessPath string `json:"access_path"`
	InCells    uint64 `json:"in_cells"`
	OutCells   uint64 `json:"out_cells"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	FellBack   bool   `json:"fell_back,omitempty"`
}

// WireQueryResult is the wire form of a QueryResult. Cells is always
// non-nil so empty results serialize as [] rather than null.
type WireQueryResult struct {
	Cells     []uint64         `json:"cells"`
	Steps     []WireStepReport `json:"steps,omitempty"`
	ElapsedNS int64            `json:"elapsed_ns"`
}

// NewWireQueryResult converts a QueryResult to its wire form.
func NewWireQueryResult(r *QueryResult) *WireQueryResult {
	if r == nil {
		return nil
	}
	cells := r.Cells()
	if cells == nil {
		cells = []uint64{}
	}
	steps := make([]WireStepReport, len(r.Steps))
	for i, st := range r.Steps {
		steps[i] = WireStepReport{
			Node:       st.Node,
			Input:      st.InputIdx,
			AccessPath: st.AccessPath,
			InCells:    st.InCells,
			OutCells:   st.OutCells,
			ElapsedNS:  st.Elapsed.Nanoseconds(),
			FellBack:   st.FellBack,
		}
	}
	return &WireQueryResult{Cells: cells, Steps: steps, ElapsedNS: r.Elapsed.Nanoseconds()}
}

// WireBatchReport is the wire form of a BatchReport.
type WireBatchReport struct {
	Queries     int    `json:"queries"`
	Succeeded   int    `json:"succeeded"`
	Failed      int    `json:"failed"`
	Cells       uint64 `json:"cells"`
	QueryTimeNS int64  `json:"query_time_ns"`
	ElapsedNS   int64  `json:"elapsed_ns"`
}

// NewWireBatchReport converts a BatchReport to its wire form.
func NewWireBatchReport(r BatchReport) WireBatchReport {
	return WireBatchReport{
		Queries:     r.Queries,
		Succeeded:   r.Succeeded,
		Failed:      r.Failed,
		Cells:       r.Cells,
		QueryTimeNS: r.QueryTime.Nanoseconds(),
		ElapsedNS:   r.Elapsed.Nanoseconds(),
	}
}

// ---------------------------------------------------------------------
// Constraints and optimizer reports
// ---------------------------------------------------------------------

// WireConstraints is the wire form of optimizer Constraints.
type WireConstraints struct {
	MaxDiskBytes int64   `json:"max_disk_bytes,omitempty"`
	MaxRuntimeNS int64   `json:"max_runtime_ns,omitempty"`
	Beta         float64 `json:"beta,omitempty"`
}

// NewWireConstraints converts Constraints to their wire form.
func NewWireConstraints(c Constraints) WireConstraints {
	return WireConstraints{
		MaxDiskBytes: c.MaxDiskBytes,
		MaxRuntimeNS: c.MaxRuntime.Nanoseconds(),
		Beta:         c.Beta,
	}
}

// Constraints converts the wire form back to Constraints.
func (w WireConstraints) Constraints() Constraints {
	return Constraints{
		MaxDiskBytes: w.MaxDiskBytes,
		MaxRuntime:   time.Duration(w.MaxRuntimeNS),
		Beta:         w.Beta,
	}
}

// WireStrategyChoice is one candidate row of a wire optimizer report.
type WireStrategyChoice struct {
	Strategy  string `json:"strategy"`
	DiskBytes int64  `json:"disk_bytes"`
	RuntimeNS int64  `json:"runtime_ns"`
	Chosen    bool   `json:"chosen,omitempty"`
}

// WireOptimizeReport is the wire form of an OptimizeReport.
type WireOptimizeReport struct {
	Plan        WirePlan                        `json:"plan"`
	PerNode     map[string][]WireStrategyChoice `json:"per_node,omitempty"`
	Objective   float64                         `json:"objective"`
	DiskBytes   int64                           `json:"disk_bytes"`
	RuntimeNS   int64                           `json:"runtime_ns"`
	SolveTimeNS int64                           `json:"solve_time_ns"`
	Status      string                          `json:"status"`
}

// NewWireOptimizeReport converts an OptimizeReport to its wire form.
func NewWireOptimizeReport(rep *OptimizeReport) *WireOptimizeReport {
	if rep == nil {
		return nil
	}
	perNode := make(map[string][]WireStrategyChoice, len(rep.PerNode))
	for node, choices := range rep.PerNode {
		rows := make([]WireStrategyChoice, len(choices))
		for i, c := range choices {
			rows[i] = WireStrategyChoice{
				Strategy:  StrategyName(c.Strategy),
				DiskBytes: c.DiskBytes,
				RuntimeNS: c.Runtime.Nanoseconds(),
				Chosen:    c.Chosen,
			}
		}
		perNode[node] = rows
	}
	return &WireOptimizeReport{
		Plan:        NewWirePlan(rep.Plan),
		PerNode:     perNode,
		Objective:   rep.Objective,
		DiskBytes:   rep.DiskBytes,
		RuntimeNS:   rep.Runtime.Nanoseconds(),
		SolveTimeNS: rep.SolveTime.Nanoseconds(),
		Status:      "optimal", // Choose returns a report only for an optimum
	}
}

// ---------------------------------------------------------------------
// Runs, stats, and service envelopes
// ---------------------------------------------------------------------

// WireRunInfo describes one registered run.
type WireRunInfo struct {
	ID           string   `json:"id"`
	Workflow     string   `json:"workflow"`
	Nodes        int      `json:"nodes"`
	ElapsedNS    int64    `json:"elapsed_ns"`
	LineageBytes int64    `json:"lineage_bytes"`
	Plan         WirePlan `json:"plan,omitempty"`
}

// NewWireRunInfo summarizes a run for the wire.
func NewWireRunInfo(run *Run) *WireRunInfo {
	if run == nil {
		return nil
	}
	return &WireRunInfo{
		ID:           run.ID,
		Workflow:     run.Spec.Name,
		Nodes:        len(run.Spec.Nodes()),
		ElapsedNS:    run.Elapsed.Nanoseconds(),
		LineageBytes: run.LineageBytes(),
		Plan:         NewWirePlan(run.Plan),
	}
}

// WireExecuteRequest asks the server to execute a catalog workflow.
// Workflow names a server-side catalog entry; Plan names one of its
// configurations; ExplicitPlan (node -> strategy names) overrides Plan
// when present. Scale and Seed parameterize the workflow's source
// generator (zero means the workflow default).
type WireExecuteRequest struct {
	Workflow     string   `json:"workflow"`
	Plan         string   `json:"plan,omitempty"`
	ExplicitPlan WirePlan `json:"explicit_plan,omitempty"`
	Scale        float64  `json:"scale,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
}

// WireQueryRequest is the body of POST /v1/runs/{id}/query.
type WireQueryRequest struct {
	Query   WireQuery         `json:"query"`
	Options *WireQueryOptions `json:"options,omitempty"`
}

// WireBatchRequest is the body of POST /v1/runs/{id}/query-batch.
type WireBatchRequest struct {
	Queries []WireQuery       `json:"queries"`
	Options *WireQueryOptions `json:"options,omitempty"`
}

// WireBatchResponse is index-aligned with the submitted queries: exactly
// one of Results[i], Errors[i] is non-zero.
type WireBatchResponse struct {
	Results []*WireQueryResult `json:"results"`
	Errors  []string           `json:"errors"`
	Report  WireBatchReport    `json:"report"`
}

// WireOptimizeRequest is the body of POST /v1/runs/{id}/optimize. Forced
// pins strategies per node (node -> strategy names).
type WireOptimizeRequest struct {
	Workload    []WireQuery         `json:"workload"`
	Constraints WireConstraints     `json:"constraints"`
	Forced      map[string][]string `json:"forced,omitempty"`
}

// WireWorkflowInfo describes one catalog workflow.
type WireWorkflowInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Plans       []string `json:"plans,omitempty"`
	DefaultPlan string   `json:"default_plan,omitempty"`
}

// WireOpStats is the wire form of one operator's statistics.
type WireOpStats struct {
	Node         string `json:"node"`
	Runs         int    `json:"runs"`
	ExecNS       int64  `json:"exec_ns"`
	LineageNS    int64  `json:"lineage_ns"`
	Pairs        int64  `json:"pairs"`
	OutCells     int64  `json:"out_cells"`
	InCells      int64  `json:"in_cells"`
	PayloadBytes int64  `json:"payload_bytes"`
	QuerySteps   int    `json:"query_steps"`
	QueryNS      int64  `json:"query_ns"`
	Reexecs      int    `json:"reexecs"`
}

// NewWireOpStats converts OpStats to their wire form.
func NewWireOpStats(s OpStats) WireOpStats {
	return WireOpStats{
		Node:         s.NodeID,
		Runs:         s.Runs,
		ExecNS:       s.ExecTime.Nanoseconds(),
		LineageNS:    s.LineageTime.Nanoseconds(),
		Pairs:        s.Pairs,
		OutCells:     s.OutCells,
		InCells:      s.InCells,
		PayloadBytes: s.PayloadBytes,
		QuerySteps:   s.QuerySteps,
		QueryNS:      s.QueryTime.Nanoseconds(),
		Reexecs:      s.Reexecs,
	}
}

// WireServerMetrics is the serving layer's own health counters.
type WireServerMetrics struct {
	Requests     int64 `json:"requests"`
	InFlight     int64 `json:"in_flight"`
	Rejected     int64 `json:"rejected"`
	Cancelled    int64 `json:"cancelled"`
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
}

// WireQueryClassProfile summarizes one query class's latency
// distribution (quantiles interpolated from the obs histogram buckets).
type WireQueryClassProfile struct {
	Class  string `json:"class"` // "backward" or "forward"
	Count  int64  `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	P99NS  int64  `json:"p99_ns"`
}

// WireOperatorProfile is one workflow node's access-path hit counts:
// how often each path ("store(FullOne<-)", "map", "reexec", ...) actually
// served a query step against this operator.
type WireOperatorProfile struct {
	Node string           `json:"node"`
	Hits map[string]int64 `json:"hits"`
}

// WireWorkloadProfile is the live workload picture a future adaptive
// optimizer consumes: the backward/forward mix, per-class latency
// quantiles, region locality, and per-operator strategy hit counts.
type WireWorkloadProfile struct {
	BackwardQueries int64                   `json:"backward_queries"`
	ForwardQueries  int64                   `json:"forward_queries"`
	QueryCells      int64                   `json:"query_cells"`
	Fallbacks       int64                   `json:"fallbacks"`
	RegionSpanP50   int64                   `json:"region_span_p50_cells"`
	RegionSpanP95   int64                   `json:"region_span_p95_cells"`
	RegionSpanP99   int64                   `json:"region_span_p99_cells"`
	Classes         []WireQueryClassProfile `json:"classes"`
	Operators       []WireOperatorProfile   `json:"operators,omitempty"`
}

// NewWireWorkloadProfile builds the profile from a system's metric set.
func NewWireWorkloadProfile(set *obs.Set) WireWorkloadProfile {
	var p WireWorkloadProfile
	if set == nil {
		return p
	}
	q := &set.Query
	p.BackwardQueries = q.Backward.Load()
	p.ForwardQueries = q.Forward.Load()
	p.QueryCells = q.Cells.Load()
	p.Fallbacks = q.Fallbacks.Load()
	region := q.RegionSpan.Snapshot()
	p.RegionSpanP50 = region.Quantile(0.50)
	p.RegionSpanP95 = region.Quantile(0.95)
	p.RegionSpanP99 = region.Quantile(0.99)
	for i, class := range []string{WireBackward, WireForward} {
		snap := q.Latency[i].Snapshot()
		p.Classes = append(p.Classes, WireQueryClassProfile{
			Class:  class,
			Count:  snap.Count,
			MeanNS: snap.Mean(),
			P50NS:  snap.Quantile(0.50),
			P95NS:  snap.Quantile(0.95),
			P99NS:  snap.Quantile(0.99),
		})
	}
	byNode := make(map[string]map[string]int64)
	q.OperatorHits.Each(func(values []string, count int64) {
		node, path := values[0], values[1]
		if byNode[node] == nil {
			byNode[node] = make(map[string]int64)
		}
		byNode[node][path] += count
	})
	nodes := make([]string, 0, len(byNode))
	for node := range byNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		p.Operators = append(p.Operators, WireOperatorProfile{Node: node, Hits: byNode[node]})
	}
	return p
}

// WireDegradedStore describes one quarantined lineage store: corrupt
// data was detected, queries against it fall back to re-execution, and
// (if Healing) a background rebuild is in flight.
type WireDegradedStore struct {
	Run      string `json:"run"`
	Node     string `json:"node"`
	Strategy string `json:"strategy"`
	Healing  bool   `json:"healing,omitempty"`
}

// NewWireDegradedStores converts the system's degraded-store inventory
// to its wire form (nil when nothing is degraded, so healthy stats omit
// the field entirely).
func NewWireDegradedStores(ds []DegradedStore) []WireDegradedStore {
	if len(ds) == 0 {
		return nil
	}
	out := make([]WireDegradedStore, len(ds))
	for i, d := range ds {
		out[i] = WireDegradedStore{Run: d.Run, Node: d.Node, Strategy: d.Strategy, Healing: d.Healing}
	}
	return out
}

// WireStoreStats is one lineage store's footprint in GET /v1/stats: its
// stored (compressed) size next to the logical volume its records
// represent (8 bytes per stored cell index plus payload bytes), and the
// record codec that produced it. Ratio is logical/stored — higher is
// better; ~1.0 means the codec is breaking even against raw indices.
type WireStoreStats struct {
	Run          string  `json:"run"`
	Node         string  `json:"node"`
	Strategy     string  `json:"strategy"`
	Codec        int     `json:"codec"`
	Pairs        int     `json:"pairs"`
	StoredBytes  int64   `json:"stored_bytes"`
	LogicalBytes int64   `json:"logical_bytes"`
	Ratio        float64 `json:"ratio"`
}

// NewWireStoreStats converts the system's store inventory to its wire
// form (nil when no runs are registered, so empty stats omit the field).
func NewWireStoreStats(ss []StoreStat) []WireStoreStats {
	if len(ss) == 0 {
		return nil
	}
	out := make([]WireStoreStats, len(ss))
	for i, s := range ss {
		w := WireStoreStats{
			Run:          s.Run,
			Node:         s.Node,
			Strategy:     s.Strategy,
			Codec:        s.Codec,
			Pairs:        s.Pairs,
			StoredBytes:  s.StoredBytes,
			LogicalBytes: s.LogicalBytes,
		}
		if s.StoredBytes > 0 {
			w.Ratio = float64(s.LogicalBytes) / float64(s.StoredBytes)
		}
		out[i] = w
	}
	return out
}

// WireHealStats reports background store-rebuild outcomes since startup.
type WireHealStats struct {
	Attempts  int64 `json:"attempts"`
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
}

// WireStats is the body of GET /v1/stats.
type WireStats struct {
	Runs         int                 `json:"runs"`
	LineageBytes int64               `json:"lineage_bytes"`
	ArrayBytes   int64               `json:"array_bytes"`
	Ops          []WireOpStats       `json:"ops,omitempty"`
	Server       WireServerMetrics   `json:"server"`
	Workload     WireWorkloadProfile `json:"workload"`
	Degraded     []WireDegradedStore `json:"degraded,omitempty"`
	Heals        WireHealStats       `json:"heals"`
	// Stores inventories every lineage store with its compressed vs
	// logical footprint (see WireStoreStats).
	Stores []WireStoreStats `json:"stores,omitempty"`
}

// WireHealth is the body of GET /v1/healthz.
type WireHealth struct {
	Status   string `json:"status"` // "ok" or "draining"
	UptimeNS int64  `json:"uptime_ns"`
	Runs     int    `json:"runs"`
	InFlight int64  `json:"in_flight"`
	// DegradedStores counts lineage stores quarantined after a corrupt
	// lookup. The service stays "ok" while degraded — queries fall back
	// to re-execution — but operators should expect elevated latency
	// until the background rebuilds (HealingStores of them) finish.
	DegradedStores int `json:"degraded_stores"`
	HealingStores  int `json:"healing_stores"`
}

// WireTraceSummary is one entry of GET /v1/traces.
type WireTraceSummary struct {
	TraceID     string `json:"trace_id"`
	Run         string `json:"run,omitempty"`
	Direction   string `json:"direction,omitempty"`
	Slow        bool   `json:"slow"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	SpanCount   int    `json:"span_count"`
}

// WireTrace is the body of GET /v1/traces/{id}: the full span tree.
type WireTrace struct {
	TraceID     string      `json:"trace_id"`
	Run         string      `json:"run,omitempty"`
	Direction   string      `json:"direction,omitempty"`
	Slow        bool        `json:"slow"`
	External    bool        `json:"external,omitempty"` // root parented by a remote caller
	StartUnixNS int64       `json:"start_unix_ns"`
	DurationNS  int64       `json:"duration_ns"`
	SpanCount   int         `json:"span_count"`
	Truncated   int         `json:"truncated,omitempty"` // spans dropped by the per-trace cap
	Roots       []*WireSpan `json:"roots"`
}

// WireSpan is one node of a WireTrace span tree.
type WireSpan struct {
	ID          string            `json:"id"`
	Parent      string            `json:"parent,omitempty"` // absent on roots
	Name        string            `json:"name"`
	Class       string            `json:"class"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []*WireSpan       `json:"children,omitempty"`
}

// NewWireTraceSummary converts a retained trace to its list entry.
func NewWireTraceSummary(t *trace.Trace) WireTraceSummary {
	return WireTraceSummary{
		TraceID:     t.ID.String(),
		Run:         t.Run,
		Direction:   t.Direction,
		Slow:        t.Slow,
		StartUnixNS: t.Start.UnixNano(),
		DurationNS:  int64(t.Duration),
		SpanCount:   len(t.Spans),
	}
}

// NewWireTrace converts a retained trace to its full wire form, grouping
// the flat span list into trees. Spans whose parent is absent (the local
// root, spans truncated away, or a parent owned by a remote caller)
// become roots.
func NewWireTrace(t *trace.Trace) *WireTrace {
	wt := &WireTrace{
		TraceID:     t.ID.String(),
		Run:         t.Run,
		Direction:   t.Direction,
		Slow:        t.Slow,
		External:    t.External,
		StartUnixNS: t.Start.UnixNano(),
		DurationNS:  int64(t.Duration),
		SpanCount:   len(t.Spans),
		Truncated:   t.Truncated,
	}
	byID := make(map[string]*WireSpan, len(t.Spans))
	order := make([]*WireSpan, 0, len(t.Spans))
	for _, sp := range t.Spans {
		ws := &WireSpan{
			ID:          sp.ID().String(),
			Name:        sp.Name(),
			Class:       sp.Class(),
			StartUnixNS: sp.StartTime().UnixNano(),
			DurationNS:  int64(sp.Duration()),
		}
		if p := sp.ParentID(); !p.IsZero() {
			ws.Parent = p.String()
		}
		if attrs := sp.Attrs(); len(attrs) > 0 {
			ws.Attrs = make(map[string]string, len(attrs))
			for _, a := range attrs {
				ws.Attrs[a.Key] = a.Value()
			}
		}
		byID[ws.ID] = ws
		order = append(order, ws)
	}
	for _, ws := range order {
		if parent := byID[ws.Parent]; parent != nil && ws.Parent != "" {
			parent.Children = append(parent.Children, ws)
			continue
		}
		wt.Roots = append(wt.Roots, ws)
	}
	return wt
}

// WireError is the structured error envelope every non-2xx response
// carries.
type WireError struct {
	Error WireErrorBody `json:"error"`
}

// WireErrorBody is the error payload: the HTTP status, a message, and —
// for server-side faults (5xx) — the trace ID to quote when reporting
// the failure, resolvable at /v1/traces/{id} while retained.
type WireErrorBody struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}
