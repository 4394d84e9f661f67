package query_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"subzero/internal/lineage"
	"subzero/internal/obs"
	"subzero/internal/query"
	"subzero/internal/trace"
)

// TestStepIsMeasuredOnce pins the one-record rule: for every step of a
// sampled query the trace span's duration, the StepReport's Elapsed and
// the class histogram's observation are one measurement — equal to the
// nanosecond, not three clock pairs that agree roughly — and the span's
// class is the report's path kind. Candidate enumeration and the query
// itself follow the same rule.
func TestStepIsMeasuredOnce(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratPayOne}))
	set := obs.NewSet()
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true}).WithObs(&set.Query)
	tracer := trace.New(trace.Config{Sample: 1})
	root := tracer.StartRequest("test", "")
	ctx := trace.ContextWithSpan(context.Background(), root)

	res, err := qe.Execute(ctx, testQueries[0]) // backward conv -> mask -> scale
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	tid, _ := trace.ParseTraceID(root.TraceIDString())
	tr := tracer.Get(tid)
	if tr == nil {
		t.Fatal("sampled trace not retained")
	}
	wantClass := []string{obs.SpanMap, obs.SpanStore, obs.SpanMap}
	if len(res.Steps) != len(wantClass) {
		t.Fatalf("steps = %d, want %d", len(res.Steps), len(wantClass))
	}

	spanSum := map[string]time.Duration{} // per class, over every step-class span
	var stepSpans []*trace.Span
	var querySpan *trace.Span
	for _, sp := range tr.Spans {
		switch {
		case strings.HasPrefix(sp.Name(), "step "):
			stepSpans = append(stepSpans, sp)
			spanSum[sp.Class()] += sp.Duration()
		case sp.Name() == "candidates":
			spanSum[sp.Class()] += sp.Duration()
		case strings.HasPrefix(sp.Name(), "query "):
			querySpan = sp
		}
	}
	if len(stepSpans) != len(res.Steps) {
		t.Fatalf("step spans = %d, want %d", len(stepSpans), len(res.Steps))
	}
	for i, st := range res.Steps { // spans are retained in end order: step order
		sp := stepSpans[i]
		if sp.Name() != "step "+st.Node {
			t.Fatalf("step %d: span %q, want node %s", i, sp.Name(), st.Node)
		}
		if sp.Duration() != st.Elapsed {
			t.Errorf("step %s: span duration %v != StepReport.Elapsed %v", st.Node, sp.Duration(), st.Elapsed)
		}
		if sp.Class() != wantClass[i] || !strings.HasPrefix(st.AccessPath, wantClass[i]) {
			t.Errorf("step %s: span class %q, access path %q, want kind %q", st.Node, sp.Class(), st.AccessPath, wantClass[i])
		}
	}
	for _, class := range []string{obs.SpanMap, obs.SpanStore, obs.SpanProbe} {
		if got := time.Duration(set.Query.StepLatency.With1(class).Sum()); got != spanSum[class] || got == 0 {
			t.Errorf("class %s: histogram sum %v != span durations %v", class, got, spanSum[class])
		}
	}
	if querySpan == nil {
		t.Fatal("no query span")
	}
	if hist := time.Duration(set.Query.Latency[0].Sum()); querySpan.Duration() != res.Elapsed || hist != res.Elapsed {
		t.Errorf("query: span %v, Result.Elapsed %v, histogram %v — want one number", querySpan.Duration(), res.Elapsed, hist)
	}
}
