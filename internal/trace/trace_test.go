package trace

import (
	"context"
	"testing"
	"time"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{Sample: 1})
	sp := tr.StartRequest("root", "")
	h := sp.Traceparent()
	tid, sid, flags, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", h)
	}
	if tid.String() != sp.TraceIDString() {
		t.Fatalf("trace ID mismatch: %s vs %s", tid, sp.TraceIDString())
	}
	if sid != sp.ID() {
		t.Fatalf("span ID mismatch: %s vs %s", sid, sp.ID())
	}
	if flags&FlagSampled == 0 {
		t.Fatal("sampled flag not set")
	}
	sp.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // too short
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",  // bad dash
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // bad hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk on v00
	}
	for _, c := range cases {
		if _, _, _, ok := ParseTraceparent(c); ok {
			t.Errorf("ParseTraceparent(%q) accepted invalid header", c)
		}
	}
	// A future version may carry extra dash-separated fields.
	future := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, _, _, ok := ParseTraceparent(future); !ok {
		t.Errorf("ParseTraceparent(%q) rejected future-version header", future)
	}
}

func TestStartRequestPropagatesTraceparent(t *testing.T) {
	tr := New(Config{Sample: 0}) // only the forced flag can sample
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sp := tr.StartRequest("root", h)
	if sp == nil {
		t.Fatal("sampled flag on incoming traceparent must force sampling")
	}
	if got := sp.TraceIDString(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID not propagated: %s", got)
	}
	if got := sp.ParentID().String(); got != "00f067aa0ba902b7" {
		t.Fatalf("parent span not propagated: %s", got)
	}
	sp.End()
	tp, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	tr2 := tr.Get(tp)
	if tr2 == nil {
		t.Fatal("trace not retained")
	}
	if !tr2.External {
		t.Fatal("trace with remote parent must be marked external")
	}
}

func TestStartRequestUnsampledHeader(t *testing.T) {
	tr := New(Config{Sample: 0})
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	if sp := tr.StartRequest("root", h); sp != nil {
		t.Fatal("unsampled flag with Sample=0 must not sample")
	}
}

func TestSpanTreeRetention(t *testing.T) {
	tr := New(Config{Sample: 1})
	root := tr.StartRequest("GET /v1/query", "")
	root.SetAttr("route", "/v1/query")
	q := root.Child("query backward", "query")
	q.SetAttr("run", "genomics-run001")
	q.SetAttr("direction", "backward")
	q.SetAttrInt("cells", 3)
	probe := q.Child("kvstore.GetBatch", "kvstore-probe")
	probe.SetAttrInt("keys", 42)
	probe.End()
	q.End()
	root.End()

	tid, _ := ParseTraceID(root.TraceIDString())
	got := tr.Get(tid)
	if got == nil {
		t.Fatal("trace not retained")
	}
	if len(got.Spans) != 3 {
		t.Fatalf("span count = %d, want 3", len(got.Spans))
	}
	if got.Run != "genomics-run001" || got.Direction != "backward" {
		t.Fatalf("run/direction not extracted: %q %q", got.Run, got.Direction)
	}
	byID := map[SpanID]*Span{}
	for _, sp := range got.Spans {
		byID[sp.ID()] = sp
	}
	pr := byID[probe.ID()]
	if pr == nil || pr.ParentID() != q.ID() {
		t.Fatal("probe span parentage broken")
	}
	if byID[q.ID()].ParentID() != root.ID() {
		t.Fatal("query span parentage broken")
	}
	if !byID[root.ID()].ParentID().IsZero() {
		t.Fatal("local root must have zero parent")
	}
	if pr.Class() != "kvstore-probe" {
		t.Fatalf("probe class = %q", pr.Class())
	}
	var keys int64 = -1
	for _, a := range pr.Attrs() {
		if a.Key == "keys" && a.IsInt {
			keys = a.Int
		}
	}
	if keys != 42 {
		t.Fatalf("keys attr = %d, want 42", keys)
	}
}

func TestSlowTraceRouting(t *testing.T) {
	tr := New(Config{Sample: 1, Slow: time.Hour})
	fast := tr.StartRequest("fast", "")
	fast.End()
	slow := tr.StartRequest("slow", "")
	slow.MarkSlow()
	slow.End()

	st := tr.Snapshot()
	if st.Retained != 1 || st.Slow != 1 {
		t.Fatalf("retained=%d slow=%d, want 1/1", st.Retained, st.Slow)
	}
	slowOnly := tr.List(Filter{SlowOnly: true})
	if len(slowOnly) != 1 || slowOnly[0].ID.String() != slow.TraceIDString() {
		t.Fatalf("SlowOnly filter returned %d traces", len(slowOnly))
	}
	all := tr.List(Filter{})
	if len(all) != 2 {
		t.Fatalf("List returned %d traces, want 2", len(all))
	}
}

func TestSlowByDuration(t *testing.T) {
	tr := New(Config{Sample: 1, Slow: time.Nanosecond})
	sp := tr.StartRequest("slow", "")
	time.Sleep(time.Millisecond)
	sp.End()
	if st := tr.Snapshot(); st.Slow != 1 {
		t.Fatalf("duration rule did not mark trace slow: %+v", st)
	}
}

func TestListFilters(t *testing.T) {
	tr := New(Config{Sample: 1})
	for i, run := range []string{"a-run001", "b-run001", "a-run001"} {
		root := tr.StartRequest("req", "")
		q := root.Child("query", "query")
		q.SetAttr("run", run)
		if i == 1 {
			q.SetAttr("direction", "forward")
		} else {
			q.SetAttr("direction", "backward")
		}
		q.End()
		root.End()
	}
	if got := len(tr.List(Filter{Run: "a-run001"})); got != 2 {
		t.Fatalf("Run filter: %d, want 2", got)
	}
	if got := len(tr.List(Filter{Direction: "forward"})); got != 1 {
		t.Fatalf("Direction filter: %d, want 1", got)
	}
	if got := len(tr.List(Filter{Limit: 1})); got != 1 {
		t.Fatalf("Limit: %d, want 1", got)
	}
	if got := len(tr.List(Filter{MinDuration: time.Hour})); got != 0 {
		t.Fatalf("MinDuration: %d, want 0", got)
	}
}

func TestGetMergesSharedTraceID(t *testing.T) {
	tr := New(Config{Sample: 1})
	// Two requests under one client-supplied traceparent, as the e2e
	// execute+query flow produces.
	const h = "00-aaaabbbbccccddddeeeeffff00001111-00f067aa0ba902b7-01"
	first := tr.StartRequest("POST /v1/execute", h)
	c1 := first.Child("execute wf", "execute")
	c1.SetAttr("run", "wf-run001")
	c1.End()
	first.End()
	second := tr.StartRequest("POST /v1/query", h)
	c2 := second.Child("query backward", "query")
	c2.SetAttr("direction", "backward")
	c2.End()
	second.End()

	tid, _ := ParseTraceID("aaaabbbbccccddddeeeeffff00001111")
	merged := tr.Get(tid)
	if merged == nil {
		t.Fatal("merged trace missing")
	}
	if len(merged.Spans) != 4 {
		t.Fatalf("merged spans = %d, want 4", len(merged.Spans))
	}
	if merged.Run != "wf-run001" || merged.Direction != "backward" {
		t.Fatalf("merged run/direction: %q %q", merged.Run, merged.Direction)
	}
}

func TestMaxSpansTruncation(t *testing.T) {
	tr := New(Config{Sample: 1, MaxSpans: 4})
	root := tr.StartRequest("root", "")
	for i := 0; i < 10; i++ {
		root.Child("c", "probe").End()
	}
	root.End()
	tid, _ := ParseTraceID(root.TraceIDString())
	got := tr.Get(tid)
	if got == nil {
		t.Fatal("trace missing")
	}
	if len(got.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(got.Spans))
	}
	if got.Truncated != 7 { // 10 children + root = 11 ended, 4 kept
		t.Fatalf("truncated = %d, want 7", got.Truncated)
	}
}

func TestLateSpanEnd(t *testing.T) {
	tr := New(Config{Sample: 1})
	root := tr.StartRequest("root", "")
	straggler := root.Child("late", "probe")
	root.End()
	straggler.End() // after finalize: must be dropped, not corrupt the trace
	if st := tr.Snapshot(); st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	tid, _ := ParseTraceID(root.TraceIDString())
	if got := tr.Get(tid); len(got.Spans) != 1 {
		t.Fatalf("late span leaked into trace: %d spans", len(got.Spans))
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{Sample: 1})
	root := tr.StartRequest("root", "")
	root.End()
	root.End()
	if st := tr.Snapshot(); st.Retained != 1 {
		t.Fatalf("double End retained %d traces", st.Retained)
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRequest("root", "")
	if sp != nil {
		t.Fatal("nil tracer must not sample")
	}
	// Exercise the whole nil-span surface.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("k", 1)
	sp.SetClass("probe")
	sp.MarkSlow()
	child := sp.Child("c", "probe")
	if child != nil {
		t.Fatal("nil span must produce nil children")
	}
	child.End()
	sp.End()
	if sp.TraceIDString() != "" || sp.Traceparent() != "" {
		t.Fatal("nil span must render empty IDs")
	}
	if tr.Get(TraceID{1}) != nil || tr.List(Filter{}) != nil {
		t.Fatal("nil tracer must return nothing")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span must not be stored in context")
	}
}

// offPathNode is a variable so the compiler cannot fold the span name
// ChildNamed would build from it.
var offPathNode = "conv"

// TestOffPathAllocFree pins the sampled-off hot path at zero allocations:
// unsampled StartRequest, context plumbing, and every nil-span method.
func TestOffPathAllocFree(t *testing.T) {
	tr := New(Config{Sample: 0})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartRequest("GET /v1/query", "")
		ctx2 := ContextWithSpan(ctx, sp)
		cur := FromContext(ctx2)
		child := cur.Child("query backward", "query")
		child.SetAttr("run", "r")
		child.SetAttrInt("cells", 3)
		child.MarkSlow()
		child.End()
		step := cur.ChildNamed("step ", offPathNode, "other")
		step.End()
		sp.End()
		_ = sp.TraceIDString()
	})
	if allocs != 0 {
		t.Fatalf("sampled-off path allocates %.1f per op, want 0", allocs)
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		v    int64
		want string
	}{{0, "0"}, {7, "7"}, {-7, "-7"}, {1234567890, "1234567890"}} {
		if got := itoa(c.v); got != c.want {
			t.Errorf("itoa(%d) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := (Attr{Key: "k", Int: 42, IsInt: true}).Value(); got != "42" {
		t.Errorf("Attr.Value int form = %q", got)
	}
	if got := (Attr{Key: "k", Str: "s"}).Value(); got != "s" {
		t.Errorf("Attr.Value str form = %q", got)
	}
}

func TestSamplingProbability(t *testing.T) {
	tr := New(Config{Sample: 0.5})
	kept := 0
	for i := 0; i < 2000; i++ {
		if sp := tr.StartRequest("r", ""); sp != nil {
			kept++
			sp.End()
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("Sample=0.5 kept %d/2000, far from half", kept)
	}
}
