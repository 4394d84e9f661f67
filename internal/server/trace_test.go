package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"subzero"
	"subzero/client"
	"subzero/internal/genomics"
	"subzero/internal/obs"
	"subzero/internal/server"
)

// callerTraceparent is a fixed W3C traceparent a remote caller might send:
// sampled flag set, so the server must trace regardless of its sample rate.
const (
	callerTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	callerSpanID      = "00f067aa0ba902b7"
	callerTraceparent = "00-" + callerTraceID + "-" + callerSpanID + "-01"
)

// newTracedService boots a System behind an httptest server.
func newTracedService(t *testing.T) (*subzero.System, *client.Client, string) {
	t.Helper()
	sys, err := subzero.NewSystem(subzero.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := server.New(server.Config{System: sys, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sys, client.New(ts.URL), ts.URL
}

// firstBackwardQuery picks one backward query from the genomics workload
// registered against the run.
func firstBackwardQuery(t *testing.T, sys *subzero.System, runID string) subzero.Query {
	t.Helper()
	run, err := sys.Run(runID)
	if err != nil {
		t.Fatal(err)
	}
	qmap, err := genomics.Queries(run)
	if err != nil {
		t.Fatal(err)
	}
	for _, qn := range genomics.QueryNames {
		if q, ok := qmap[qn]; ok && q.Direction == subzero.Backward {
			return q
		}
	}
	t.Fatal("genomics workload has no backward query")
	return subzero.Query{}
}

// collectSpans flattens a wire span tree, checking parent links along the
// way: every child's Parent field must name its enclosing span.
func collectSpans(t *testing.T, parent string, spans []*subzero.WireSpan, out map[string][]*subzero.WireSpan) {
	t.Helper()
	for _, sp := range spans {
		if parent != "" && sp.Parent != parent {
			t.Errorf("span %s (%s): parent = %q, want %q", sp.ID, sp.Name, sp.Parent, parent)
		}
		out[sp.Class] = append(out[sp.Class], sp)
		collectSpans(t, sp.ID, sp.Children, out)
	}
}

// TestTraceEndToEnd drives a workflow execution and a lineage query
// through the HTTP API with a client-supplied traceparent, then fetches
// the retained trace and asserts the span tree: HTTP roots parented by
// the caller's span, executor-step spans and kvstore probe spans, all
// under the propagated trace ID.
func TestTraceEndToEnd(t *testing.T) {
	ctx := client.WithTraceparent(context.Background(), callerTraceparent)
	sys, c, _ := newTracedService(t)

	info, err := c.Execute(ctx, subzero.WireExecuteRequest{
		Workflow: "genomics", Plan: "PayBoth", Scale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	qmap, err := genomics.Queries(run)
	if err != nil {
		t.Fatal(err)
	}
	var fired int
	for _, q := range qmap {
		if q.Direction != subzero.Backward {
			continue
		}
		if _, err := c.Query(ctx, info.ID, q, nil); err != nil {
			t.Fatal(err)
		}
		fired++
	}
	if fired == 0 {
		t.Fatal("genomics workload has no backward queries")
	}

	// A handler ends its root span after the response is written, so the
	// last query's root can land after the client has its answer: poll
	// until every root is in. The polls carry no traceparent, so they do
	// not join the trace themselves.
	want := 1 + fired
	var wt *subzero.WireTrace
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if wt, err = c.Trace(context.Background(), callerTraceID); err != nil {
			t.Fatal(err)
		}
		if len(wt.Roots) >= want || time.Now().After(deadline) {
			break
		}
	}
	if wt.TraceID != callerTraceID {
		t.Fatalf("trace ID = %q, want propagated %q", wt.TraceID, callerTraceID)
	}
	if !wt.External {
		t.Error("trace not marked external despite remote traceparent")
	}
	if wt.Run != info.ID {
		t.Errorf("trace run = %q, want %q", wt.Run, info.ID)
	}
	if wt.Direction != "backward" {
		t.Errorf("trace direction = %q, want backward", wt.Direction)
	}
	// Execute + queries all joined one trace: every request root is a
	// distinct tree root parented by the caller's span.
	if len(wt.Roots) != want {
		t.Fatalf("roots = %d, want %d (execute + %d queries)", len(wt.Roots), want, fired)
	}
	byClass := make(map[string][]*subzero.WireSpan)
	for _, root := range wt.Roots {
		if root.Parent != callerSpanID {
			t.Errorf("root %s (%s): parent = %q, want caller span %q", root.ID, root.Name, root.Parent, callerSpanID)
		}
		byClass[root.Class] = append(byClass[root.Class], root)
		collectSpans(t, root.ID, root.Children, byClass)
	}

	for _, class := range []string{
		obs.SpanHTTP, obs.SpanExecute, obs.SpanNode, obs.SpanQuery,
		obs.SpanKVProbe,
	} {
		if len(byClass[class]) == 0 {
			classes := make([]string, 0, len(byClass))
			for k := range byClass {
				classes = append(classes, k)
			}
			t.Fatalf("no span with class %q in trace; classes present: %v", class, classes)
		}
	}
	// Executor steps report their access path as a span class drawn from
	// the registered families.
	known := make(map[string]bool)
	for _, class := range obs.SpanClasses() {
		known[class] = true
	}
	steps := 0
	for class, spans := range byClass {
		if !known[class] {
			t.Errorf("span class %q is not a registered obs.SpanClass", class)
		}
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, "step ") {
				steps++
			}
		}
	}
	if steps == 0 {
		t.Error("no executor step spans in trace")
	}
	// The kvstore probes sit under steps that touched Pay stores.
	for _, probe := range byClass[obs.SpanKVProbe] {
		if probe.Attrs["keys"] == "" {
			t.Errorf("kvstore probe span %s has no keys attr", probe.ID)
		}
	}

	// The same trace appears in the listing and honors filters.
	sums, err := c.Traces(ctx, client.TraceListOptions{Run: info.ID, Direction: "backward", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.TraceID == callerTraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s missing from filtered listing (%d entries)", callerTraceID, len(sums))
	}
}

// TestTraceEndpointErrors covers the malformed-ID and not-retained paths.
func TestTraceEndpointErrors(t *testing.T) {
	ctx := context.Background()
	_, c, _ := newTracedService(t)

	if _, err := c.Trace(ctx, "not-hex"); err == nil {
		t.Fatal("malformed trace ID accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("malformed trace ID: got %v, want 400", err)
	}
	if _, err := c.Trace(ctx, strings.Repeat("ab", 16)); !client.IsNotFound(err) {
		t.Fatalf("unknown trace ID: got %v, want 404", err)
	}
}

// TestTraceparentResponseHeader asserts the server answers every request
// with its own position in the trace: same trace ID, new span ID, sampled.
func TestTraceparentResponseHeader(t *testing.T) {
	_, _, base := newTracedService(t)

	req, err := http.NewRequest(http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", callerTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := resp.Header.Get("Traceparent")
	parts := strings.Split(got, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != callerTraceID || parts[3] != "01" {
		t.Fatalf("response traceparent = %q, want 00-%s-<new span>-01", got, callerTraceID)
	}
	if parts[2] == callerSpanID || len(parts[2]) != 16 {
		t.Fatalf("response span ID %q must be a fresh 16-hex ID, not the caller's", parts[2])
	}
}

// TestMetricsOpenMetricsNegotiation: the OpenMetrics exposition (with
// exemplars and # EOF) is served only to scrapers that ask for it; the
// default 0.0.4 body never carries either.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	ctx := client.WithTraceparent(context.Background(), callerTraceparent)
	sys, c, base := newTracedService(t)

	info, err := c.Execute(ctx, subzero.WireExecuteRequest{
		Workflow: "genomics", Plan: "PayBoth", Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := firstBackwardQuery(t, sys, info.ID)
	if _, err := c.Query(ctx, info.ID, q, nil); err != nil {
		t.Fatal(err)
	}

	fetch := func(accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), resp.Header.Get("Content-Type")
	}

	om, omType := fetch("application/openmetrics-text; version=1.0.0")
	if !strings.HasPrefix(omType, "application/openmetrics-text") {
		t.Fatalf("openmetrics content type = %q", omType)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("openmetrics body missing # EOF terminator")
	}
	if !strings.Contains(om, `# {trace_id="`+callerTraceID+`"}`) {
		t.Error("openmetrics body missing query-duration exemplar with propagated trace ID")
	}

	plain, plainType := fetch("")
	if !strings.HasPrefix(plainType, "text/plain") {
		t.Fatalf("plain content type = %q", plainType)
	}
	if strings.Contains(plain, "trace_id=") || strings.Contains(plain, "# EOF") {
		t.Error("0.0.4 exposition leaked OpenMetrics syntax")
	}
	// Both bodies parse sample by sample.
	if _, err := parseSamples(plain); err != nil {
		t.Fatalf("0.0.4 exposition unparseable: %v", err)
	}
	if _, err := parseSamples(om); err != nil {
		t.Fatalf("openmetrics exposition unparseable: %v", err)
	}
}

// TestSlowQueryPinsTrace: a server with a zero-distance slow threshold
// marks every query's trace slow, so it lands in the always-keep ring and
// is listable with the slow filter.
func TestSlowQueryPinsTrace(t *testing.T) {
	sys, err := subzero.NewSystem(subzero.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := server.New(server.Config{System: sys, MaxInFlight: 8, SlowQuery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)

	ctx := client.WithTraceparent(context.Background(), callerTraceparent)
	info, err := c.Execute(ctx, subzero.WireExecuteRequest{
		Workflow: "genomics", Plan: "PayBoth", Scale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := firstBackwardQuery(t, sys, info.ID)
	if _, err := c.Query(ctx, info.ID, q, nil); err != nil {
		t.Fatal(err)
	}
	sums, err := c.Traces(ctx, client.TraceListOptions{SlowOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.TraceID == callerTraceID && s.Slow {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow-pinned trace %s missing from slow listing (%d entries)", callerTraceID, len(sums))
	}
}
