// Package trace is SubZero's stdlib-only request tracer: real span trees
// per request — trace/span IDs, parent links, start/duration, and typed
// attributes — threaded through every layer the obs counters touch (HTTP
// handler, workflow execution, query executor steps, kvstore probes).
//
// Design constraints, in priority order:
//
//   - The sampled-off path is allocation-free: every *Span method is
//     nil-receiver safe, FromContext on a span-less context allocates
//     nothing, and an unsampled StartRequest returns nil without touching
//     the heap (pinned by TestOffPathAllocFree).
//   - Completed traces are immutable: a *Trace is built once, after its
//     root span ends, and published to the retention rings through atomic
//     pointers — readers can never observe a half-written tree.
//   - Retention is bounded: a lock-free ring for completed traces plus a
//     separate always-keep ring for slow traces, so a burst of fast
//     requests cannot evict the evidence for the one that dragged.
//
// Interop follows W3C Trace Context: StartRequest accepts an incoming
// traceparent header (propagating the caller's trace ID and parent span)
// and Span.Traceparent renders the outgoing form, so scatter-gather
// deployments stitch one tree across nodes.
package trace

import (
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-hex-digit trace ID (the /v1/traces/{id} path
// form). The zero ID is rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// Defaults for Config fields left zero.
const (
	DefaultCapacity     = 256
	DefaultSlowCapacity = 64
	DefaultMaxSpans     = 512
)

// Config assembles a Tracer.
type Config struct {
	// Sample is the head-based sampling probability in [0, 1]. It is
	// applied per request at StartRequest; a request carrying a
	// traceparent with the sampled flag set is always traced regardless.
	// Note the zero value disables sampling — servers default to 1.0.
	Sample float64
	// Slow marks a completed trace slow (routing it to the always-keep
	// ring) when its root span lasts at least this long. 0 disables the
	// duration rule; MarkSlow still applies.
	Slow time.Duration
	// Capacity bounds the completed-trace ring (default DefaultCapacity).
	Capacity int
	// SlowCapacity bounds the always-keep slow ring (default
	// DefaultSlowCapacity). Slow traces are only evicted by newer slow
	// traces.
	SlowCapacity int
	// MaxSpans caps the spans retained per trace (default
	// DefaultMaxSpans); further spans are counted as truncated.
	MaxSpans int
}

// Stats is a point-in-time snapshot of the tracer's own counters.
type Stats struct {
	Started   int64 // StartRequest calls
	Sampled   int64 // requests that got a real span tree
	Retained  int64 // completed traces pushed to the normal ring
	Slow      int64 // completed traces pushed to the slow ring
	Truncated int64 // spans dropped by the per-trace cap
	Late      int64 // spans that ended after their trace finalized
}

// Tracer samples requests, assembles span trees, and retains completed
// traces. Safe for concurrent use.
type Tracer struct {
	sample   float64
	slow     time.Duration
	maxSpans int

	ring     *ring
	slowRing *ring

	started   atomic.Int64
	sampled   atomic.Int64
	retained  atomic.Int64
	slowKept  atomic.Int64
	truncated atomic.Int64
	late      atomic.Int64
}

// New builds a Tracer. Zero Config fields select the documented defaults
// (except Sample, whose zero value genuinely means "never sample").
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{
		sample:   cfg.Sample,
		slow:     cfg.Slow,
		maxSpans: cfg.MaxSpans,
		ring:     newRing(cfg.Capacity),
		slowRing: newRing(cfg.SlowCapacity),
	}
}

// Snapshot returns the tracer's own counters.
func (t *Tracer) Snapshot() Stats {
	return Stats{
		Started:   t.started.Load(),
		Sampled:   t.sampled.Load(),
		Retained:  t.retained.Load(),
		Slow:      t.slowKept.Load(),
		Truncated: t.truncated.Load(),
		Late:      t.late.Load(),
	}
}

// StartRequest begins the root span of one request. traceparent is the
// raw incoming header ("" when absent): a valid header propagates the
// caller's trace ID and parent span, and its sampled flag forces tracing;
// otherwise the head-based sampling probability decides. Returns nil when
// the request is not sampled — all Span methods are nil-safe, so callers
// thread the result unconditionally. A nil *Tracer never samples.
func (t *Tracer) StartRequest(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	var tid TraceID
	var parent SpanID
	forced := false
	if traceparent != "" {
		if ptid, pspan, flags, ok := ParseTraceparent(traceparent); ok {
			tid, parent = ptid, pspan
			forced = flags&FlagSampled != 0
		}
	}
	if !forced && !t.sampleDecision() {
		return nil
	}
	t.sampled.Add(1)
	if tid.IsZero() {
		tid = t.newTraceID()
	}
	td := &traceData{tracer: t, id: tid, external: !parent.IsZero()}
	sp := &Span{
		td:     td,
		id:     t.newSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	td.root = sp
	return sp
}

// sampleDecision applies the head-based probability. Sample >= 1 keeps
// everything without consuming randomness.
func (t *Tracer) sampleDecision() bool {
	if t.sample >= 1 {
		return true
	}
	if t.sample <= 0 {
		return false
	}
	return rand.Float64() < t.sample
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * i))
			id[8+i] = byte(lo >> (8 * i))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

// retain routes a finalized trace to its ring.
func (t *Tracer) retain(tr *Trace) {
	if tr.Slow {
		t.slowKept.Add(1)
		t.slowRing.put(tr)
		return
	}
	t.retained.Add(1)
	t.ring.put(tr)
}

// traceData is the mutable under-construction state shared by a request's
// spans. It dies when the root span ends and the immutable Trace is
// published.
type traceData struct {
	tracer   *Tracer
	id       TraceID
	root     *Span
	external bool // root's parent span came from a remote caller

	mu        sync.Mutex
	spans     []*Span // ended spans, in end order
	truncated int
	slow      bool
	done      bool
}

// Attr is one typed span attribute.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsInt distinguishes the integer form (Int) from the string form
	// (Str).
	IsInt bool
}

// Value renders the attribute value as a string.
func (a Attr) Value() string {
	if a.IsInt {
		return itoa(a.Int)
	}
	return a.Str
}

// itoa is strconv.FormatInt(v, 10) without the import weight in callers.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Span is one node of a request's span tree. A span is owned by the
// goroutine that created it until End; all methods are nil-receiver safe,
// so unsampled requests thread nil spans for free.
type Span struct {
	td       *traceData
	id       SpanID
	parent   SpanID
	name     string
	class    string
	start    time.Time
	duration time.Duration
	attrs    []Attr
	ended    bool
}

// Child starts a child span. class must be one of the obs.SpanClasses()
// families (see CONTRIBUTING). Returns nil on a nil receiver.
func (s *Span) Child(name, class string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		td:     s.td,
		id:     s.td.tracer.newSpanID(),
		parent: s.id,
		name:   name,
		class:  class,
		start:  time.Now(),
	}
}

// ChildNamed is Child for a name built at the call site: prefix and name
// are joined only when the span is live, so the sampled-off path does not
// pay for a string it would drop.
func (s *Span) ChildNamed(prefix, name, class string) *Span {
	if s == nil {
		return nil
	}
	return s.Child(prefix+name, class)
}

// SetClass sets the span's class after creation (used when the class is
// only known once an access path is chosen).
func (s *Span) SetClass(class string) {
	if s != nil {
		s.class = class
	}
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Str: value})
	}
}

// SetAttrInt attaches an integer attribute.
func (s *Span) SetAttrInt(key string, value int64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Int: value, IsInt: true})
	}
}

// MarkSlow flags the whole trace slow regardless of root duration, so it
// lands in the always-keep ring. The serving layer calls it when a query
// crosses the -slow-query threshold.
func (s *Span) MarkSlow() {
	if s == nil {
		return
	}
	td := s.td
	td.mu.Lock()
	td.slow = true
	td.mu.Unlock()
}

// TraceIDString returns the trace ID as hex, or "" on a nil span — the
// form exemplars and log records carry.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.td.id.String()
}

// Traceparent renders the outgoing W3C header for propagating this span
// as the parent of downstream work ("" on a nil span).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.td.id, s.id, FlagSampled)
}

// ID returns the span's ID (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// ParentID returns the parent span's ID (zero for a local root).
func (s *Span) ParentID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Class returns the span's obs.SpanClasses() family.
func (s *Span) Class() string {
	if s == nil {
		return ""
	}
	return s.class
}

// StartTime returns when the span started.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's duration (valid after End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.duration
}

// Attrs returns the span's attributes. The slice must not be mutated.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// End completes the span on its own clock, recording its duration and
// appending it to the trace. Ending the root span finalizes the trace: an
// immutable *Trace is built and published to the retention rings. End is
// idempotent and nil-safe.
func (s *Span) End() {
	if s != nil {
		s.EndAt(s.start, time.Since(s.start))
	}
}

// EndAt is End on the caller's clock: the span covers exactly
// [start, start+elapsed], so a caller that also reports or observes the
// interval records one measurement, not two.
func (s *Span) EndAt(start time.Time, elapsed time.Duration) {
	if s == nil {
		return
	}
	td := s.td
	td.mu.Lock()
	if s.ended {
		td.mu.Unlock()
		return
	}
	s.ended = true
	s.start, s.duration = start, elapsed
	switch {
	case td.done:
		td.tracer.late.Add(1)
	case len(td.spans) < td.tracer.maxSpans:
		td.spans = append(td.spans, s)
	default:
		td.truncated++
	}
	var tr *Trace
	if s == td.root && !td.done {
		tr = td.finalizeLocked()
	}
	td.mu.Unlock()
	if tr != nil {
		td.tracer.retain(tr)
	}
}

// Trace is one completed, immutable span tree. Published through atomic
// pointers after construction; never mutated afterwards.
type Trace struct {
	ID        TraceID
	Root      SpanID
	External  bool // the root's parent span belongs to a remote caller
	Start     time.Time
	Duration  time.Duration
	Slow      bool
	Run       string // first "run" attribute seen across spans
	Direction string // first "direction" attribute seen across spans
	Truncated int
	Spans     []*Span // ended spans; fields are frozen
}

// finalizeLocked builds the immutable trace. Caller holds td.mu.
func (td *traceData) finalizeLocked() *Trace {
	td.done = true
	root := td.root
	tr := &Trace{
		ID:        td.id,
		Root:      root.id,
		External:  td.external,
		Start:     root.start,
		Duration:  root.duration,
		Slow:      td.slow,
		Truncated: td.truncated,
		Spans:     td.spans,
	}
	if td.truncated > 0 {
		td.tracer.truncated.Add(int64(td.truncated))
	}
	if !tr.Slow && td.tracer.slow > 0 && root.duration >= td.tracer.slow {
		tr.Slow = true
	}
	for _, sp := range tr.Spans {
		for _, a := range sp.attrs {
			switch {
			case tr.Run == "" && a.Key == "run":
				tr.Run = a.Value()
			case tr.Direction == "" && a.Key == "direction":
				tr.Direction = a.Value()
			}
		}
		if tr.Run != "" && tr.Direction != "" {
			break
		}
	}
	return tr
}

// Filter selects traces in List.
type Filter struct {
	Run         string        // exact run ID ("" matches all)
	Direction   string        // "backward" or "forward" ("" matches all)
	MinDuration time.Duration // minimum root duration
	SlowOnly    bool          // only slow traces
	Limit       int           // max results (<= 0 selects 100)
}

// match reports whether the trace passes the filter.
func (f Filter) match(tr *Trace) bool {
	if f.Run != "" && tr.Run != f.Run {
		return false
	}
	if f.Direction != "" && tr.Direction != f.Direction {
		return false
	}
	if tr.Duration < f.MinDuration {
		return false
	}
	if f.SlowOnly && !tr.Slow {
		return false
	}
	return true
}

// List returns retained traces passing the filter, newest first. Each
// retained entry is one request; requests sharing a propagated trace ID
// appear as separate entries (Get merges them).
func (t *Tracer) List(f Filter) []*Trace {
	if t == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	all := append(t.slowRing.snapshot(), t.ring.snapshot()...)
	// Newest first across both rings.
	sortTracesByStart(all)
	out := make([]*Trace, 0, min(limit, len(all)))
	for _, tr := range all {
		if !f.match(tr) {
			continue
		}
		out = append(out, tr)
		if len(out) == limit {
			break
		}
	}
	return out
}

// sortTracesByStart orders newest first (insertion sort: ring snapshots
// are already mostly ordered and small).
func sortTracesByStart(ts []*Trace) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Start.After(ts[j-1].Start); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Get returns the retained trace with the given ID, merging every
// retained entry that shares it (a client propagating one traceparent
// across an execute and a query yields one stitched tree). Returns nil
// when no entry matches.
func (t *Tracer) Get(id TraceID) *Trace {
	if t == nil || id.IsZero() {
		return nil
	}
	var entries []*Trace
	for _, tr := range t.slowRing.snapshot() {
		if tr.ID == id {
			entries = append(entries, tr)
		}
	}
	for _, tr := range t.ring.snapshot() {
		if tr.ID == id {
			entries = append(entries, tr)
		}
	}
	switch len(entries) {
	case 0:
		return nil
	case 1:
		return entries[0]
	}
	// Merge: order entries oldest first, concatenate spans, widen the
	// window, keep the earliest root.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Start.Before(entries[j-1].Start); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	first := entries[0]
	merged := &Trace{
		ID:        id,
		Root:      first.Root,
		External:  first.External,
		Start:     first.Start,
		Run:       first.Run,
		Direction: first.Direction,
	}
	end := first.Start
	for _, e := range entries {
		merged.Spans = append(merged.Spans, e.Spans...)
		merged.Truncated += e.Truncated
		merged.Slow = merged.Slow || e.Slow
		if merged.Run == "" {
			merged.Run = e.Run
		}
		if merged.Direction == "" {
			merged.Direction = e.Direction
		}
		if stop := e.Start.Add(e.Duration); stop.After(end) {
			end = stop
		}
	}
	merged.Duration = end.Sub(merged.Start)
	return merged
}
