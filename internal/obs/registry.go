package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Unit declares how a family's int64 samples map to exposition values.
type Unit int

const (
	// Raw exposes stored values as-is (counts, cells, bytes).
	Raw Unit = iota
	// Nanos stores nanoseconds and exposes floating-point seconds, the
	// Prometheus convention for durations.
	Nanos
)

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelSep joins label values into a series key. Label values containing
// the separator byte (unit separator, never printable) would collide; no
// SubZero label value can.
const labelSep = "\x1f"

// series is one (labels -> metric) binding inside a family.
type series struct {
	labelStr string   // rendered `k="v",k2="v2"` form, "" for the scalar series
	values   []string // raw label values, aligned with family.labels
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// family is one named metric family: a TYPE, a unit, a label schema, and
// its series.
type family struct {
	name   string
	help   string
	kind   metricKind
	unit   Unit
	labels []string

	mu     sync.Mutex
	keys   []string // insertion order; sorted at exposition time
	series map[string]*series
}

// ensure returns the series for the given label values, creating it on
// first use. values must match the family's label schema length.
func (f *family) ensure(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := ""
	switch len(values) {
	case 0:
	case 1:
		key = values[0]
	case 2:
		key = values[0] + labelSep + values[1]
	default:
		key = strings.Join(values, labelSep)
	}
	f.mu.Lock()
	s := f.series[key]
	if s == nil {
		s = &series{values: append([]string(nil), values...)}
		var b strings.Builder
		for i, name := range f.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(values[i]))
			b.WriteByte('"')
		}
		s.labelStr = b.String()
		switch f.kind {
		case kindCounter:
			s.c = new(Counter)
		case kindGauge:
			s.g = new(Gauge)
		case kindHistogram:
			s.h = new(Histogram)
		}
		f.series[key] = s
		f.keys = append(f.keys, key)
	}
	f.mu.Unlock()
	return s
}

// Registry holds metric families and renders them in Prometheus text
// exposition format 0.0.4. Registration is for setup time (duplicate names
// panic); observation goes through the returned metric pointers and never
// touches the registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, unit Unit, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic("obs: duplicate metric family " + name)
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		unit:   unit,
		labels: labels,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// NewCounter registers an unlabeled counter family and returns its series.
func (r *Registry) NewCounter(name, help string, unit Unit) *Counter {
	return r.register(name, help, kindCounter, unit, nil).ensure(nil).c
}

// NewGauge registers an unlabeled gauge family and returns its series.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, Raw, nil).ensure(nil).g
}

// NewHistogram registers an unlabeled histogram family and returns its
// series.
func (r *Registry) NewHistogram(name, help string, unit Unit) *Histogram {
	return r.register(name, help, kindHistogram, unit, nil).ensure(nil).h
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, unit Unit, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, unit, labels)}
}

// With1 returns the counter of a single-label family for the label value,
// creating it on first use. Resolve once and cache the pointer on hot paths.
func (v *CounterVec) With1(a string) *Counter { return v.f.ensure1(a).c }

// With2 is With1 for two-label families; its only allocation is the
// composite key string.
func (v *CounterVec) With2(a, b string) *Counter { return v.f.ensure2(a, b).c }

// Each calls fn for every series with its raw label values and current
// count, in insertion order.
func (v *CounterVec) Each(fn func(values []string, count int64)) {
	v.f.mu.Lock()
	keys := append([]string(nil), v.f.keys...)
	all := make([]*series, len(keys))
	for i, k := range keys {
		all[i] = v.f.series[k]
	}
	v.f.mu.Unlock()
	for _, s := range all {
		fn(s.values, s.c.Load())
	}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, unit Unit, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, unit, labels)}
}

// With1 returns the histogram of a single-label family for the label value.
func (v *HistogramVec) With1(a string) *Histogram { return v.f.ensure1(a).h }

// ensure1 and ensure2 mirror ensure without a variadic slice, keeping
// single- and double-label lookups at zero and one allocation.
func (f *family) ensure1(a string) *series {
	if len(f.labels) != 1 {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got 1", f.name, len(f.labels)))
	}
	f.mu.Lock()
	s := f.series[a]
	f.mu.Unlock()
	if s != nil {
		return s
	}
	return f.ensure([]string{a})
}

func (f *family) ensure2(a, b string) *series {
	if len(f.labels) != 2 {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got 2", f.name, len(f.labels)))
	}
	key := a + labelSep + b
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	if s != nil {
		return s
	}
	return f.ensure([]string{a, b})
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a stored int64 in the family's unit.
func formatValue(v int64, unit Unit) string {
	if unit == Nanos {
		return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(v, 10)
}

// formatBound renders a bucket upper bound in the family's unit.
func formatBound(i int, unit Unit) string {
	if i >= NumBuckets-1 {
		return "+Inf"
	}
	return formatValue(BucketBound(i), unit)
}

// WriteProm renders every family in Prometheus text exposition format
// 0.0.4: families sorted by name, a HELP and TYPE line each, series sorted
// by label string, histograms as cumulative le buckets plus _sum/_count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b, false)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteOpenMetrics renders the same families as WriteProm with two
// OpenMetrics additions: histogram bucket lines carry exemplars
// ("# {trace_id=\"...\"} value" suffix) when a traced observation landed
// in the bucket, and the body ends with the required "# EOF" terminator.
// Serve it only under content negotiation — the 0.0.4 parser in client/
// would otherwise see the exemplar as part of the sample line.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b, true)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (f *family) write(b *strings.Builder, exemplars bool) {
	f.mu.Lock()
	keys := append([]string(nil), f.keys...)
	all := make([]*series, len(keys))
	for i, k := range keys {
		all[i] = f.series[k]
	}
	f.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].labelStr < all[j].labelStr })

	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	for _, s := range all {
		switch f.kind {
		case kindCounter:
			writeSample(b, f.name, "", s.labelStr, "", formatValue(s.c.Load(), f.unit))
		case kindGauge:
			writeSample(b, f.name, "", s.labelStr, "", formatValue(s.g.Load(), f.unit))
		case kindHistogram:
			snap := s.h.Snapshot()
			var cum int64
			for i := range snap.Buckets {
				cum += snap.Buckets[i]
				// Collapse empty interior buckets: emit a bucket line only
				// when it adds information (non-empty, first, or last).
				if snap.Buckets[i] == 0 && i != NumBuckets-1 && i != 0 {
					continue
				}
				var ex string
				if exemplars {
					if e := s.h.Exemplar(i); e != nil {
						ex = ` # {trace_id="` + escapeLabelValue(e.TraceID) + `"} ` +
							formatValue(e.Value, f.unit)
					}
				}
				writeSample(b, f.name, "_bucket", s.labelStr,
					`le="`+formatBound(i, f.unit)+`"`, strconv.FormatInt(cum, 10)+ex)
			}
			writeSample(b, f.name, "_sum", s.labelStr, "", formatValue(snap.Sum, f.unit))
			writeSample(b, f.name, "_count", s.labelStr, "", strconv.FormatInt(snap.Count, 10))
		}
	}
}

// writeSample writes one exposition line: name+suffix{labels,extra} value.
func writeSample(b *strings.Builder, name, suffix, labels, extra, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}
