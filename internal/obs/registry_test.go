package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf)$`)

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("subzero_test_ops_total", "Operations performed.", Raw)
	c.Add(7)
	g := r.NewGauge("subzero_test_depth", "Queue depth.")
	g.Set(3)
	h := r.NewHistogram("subzero_test_latency_seconds", "Latency.", Nanos)
	h.Observe(1500) // 1.5µs -> bucket le 2048ns = 2.048e-06s
	cv := r.NewCounterVec("subzero_test_hits_total", "Hits by kind.", Raw, "kind")
	cv.With1("alpha").Add(2)
	cv.With1("beta").Inc()

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP subzero_test_ops_total Operations performed.\n",
		"# TYPE subzero_test_ops_total counter\n",
		"subzero_test_ops_total 7\n",
		"# TYPE subzero_test_depth gauge\n",
		"subzero_test_depth 3\n",
		"# TYPE subzero_test_latency_seconds histogram\n",
		"subzero_test_latency_seconds_count 1\n",
		"subzero_test_latency_seconds_sum 1.5e-06\n",
		`subzero_test_hits_total{kind="alpha"} 2` + "\n",
		`subzero_test_hits_total{kind="beta"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Families must be sorted by name and preceded by HELP then TYPE.
	var lastFamily string
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if name < lastFamily {
				t.Errorf("family %s out of order after %s", name, lastFamily)
			}
			lastFamily = name
			helpSeen[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			if !helpSeen[name] {
				t.Errorf("TYPE before HELP for %s", name)
			}
			typeSeen[name] = true
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("unparsable sample line %q", line)
				continue
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
			if !typeSeen[base] && !typeSeen[m[1]] {
				t.Errorf("sample %q has no TYPE line", line)
			}
		}
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "h", Nanos)
	for _, v := range []int64{1, 2, 3, 1000, 1 << 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	var infCount, total int64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			if strings.HasPrefix(line, "lat_seconds_count ") {
				total, _ = strconv.ParseInt(strings.TrimPrefix(line, "lat_seconds_count "), 10, 64)
			}
			continue
		}
		_, val, ok := strings.Cut(line, "} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", val, err)
		}
		if n < prev {
			t.Errorf("bucket counts not cumulative: %d after %d in %q", n, prev, line)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			infCount = n
		}
	}
	if infCount != 5 || total != 5 {
		t.Errorf("+Inf bucket %d, count %d, want both 5", infCount, total)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("esc_total", "h", Raw, "endpoint")
	cv.With1("GET /v1/\"weird\"\npath\\x").Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{endpoint="GET /v1/\"weird\"\npath\\x"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Fatalf("escaped sample missing; got:\n%s", sb.String())
	}
	// The escaped line must still parse as one sample.
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 {
			t.Errorf("sample line %q has no value separator", line)
		} else if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("sample value in %q does not parse: %v", line, err)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("help_total", "line one\nline \\two", Raw)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# HELP help_total line one\nline \\two`+"\n") {
		t.Fatalf("HELP not escaped:\n%s", sb.String())
	}
}

func TestNewSetRegistersAllFamilies(t *testing.T) {
	set := NewSet()
	var sb strings.Builder
	if err := set.Registry.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"subzero_queries_total",
		"subzero_query_duration_seconds",
		"subzero_query_steps_total",
		"subzero_query_step_duration_seconds",
		"subzero_query_cells_total",
		"subzero_query_region_span_cells",
		"subzero_query_fallbacks_total",
		"subzero_query_operator_path_total",
		"subzero_kvstore_ops_total",
		"subzero_kvstore_keys_total",
		"subzero_kvstore_bytes_total",
		"subzero_kvstore_get_batch_seconds",
		"subzero_kvstore_put_batch_seconds",
		"subzero_http_requests_total",
		"subzero_http_request_duration_seconds",
		"subzero_http_in_flight",
		"subzero_http_shed_total",
		"subzero_http_cancelled_total",
		"subzero_http_responses_total",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("family %s not registered", fam)
		}
	}
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("x_seconds", "X.", Nanos)
	h.Observe(100)
	h.SetExemplar(100, "4bf92f3577b34da6a3ce929d0e0e4736")

	var prom, om strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}

	if strings.Contains(prom.String(), "trace_id") {
		t.Fatal("WriteProm must not emit exemplars (0.0.4 parsers choke)")
	}
	if strings.Contains(prom.String(), "# EOF") {
		t.Fatal("WriteProm must not emit the OpenMetrics terminator")
	}
	want := `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 1e-07`
	if !strings.Contains(om.String(), want) {
		t.Fatalf("WriteOpenMetrics missing exemplar %q in:\n%s", want, om.String())
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Fatal("WriteOpenMetrics must end with # EOF")
	}
}

func TestSetExemplarEmptyTraceIgnored(t *testing.T) {
	var h Histogram
	h.SetExemplar(5, "")
	for i := 0; i < NumBuckets; i++ {
		if h.Exemplar(i) != nil {
			t.Fatal("empty trace ID must not create an exemplar")
		}
	}
	if h.Exemplar(-1) != nil || h.Exemplar(NumBuckets) != nil {
		t.Fatal("out-of-range Exemplar must return nil")
	}
}

func TestSpanClassesComplete(t *testing.T) {
	classes := SpanClasses()
	seen := map[string]bool{}
	for _, c := range classes {
		if seen[c] {
			t.Fatalf("duplicate span class %q", c)
		}
		seen[c] = true
	}
	for _, c := range []string{SpanProbe, SpanStore, SpanReexec, SpanHTTP,
		SpanQuery, SpanExecute, SpanNode, SpanKVProbe} {
		if !seen[c] {
			t.Fatalf("SpanClasses missing %q", c)
		}
	}
}

func TestAttachExemplar(t *testing.T) {
	set := NewSet()
	set.Query.RecordQuery(0, 100*time.Nanosecond, nil, "abc123")
	found := false
	for i := 0; i < NumBuckets; i++ {
		if e := set.Query.Latency[0].Exemplar(i); e != nil {
			found = true
			if e.TraceID != "abc123" {
				t.Fatalf("exemplar trace = %q", e.TraceID)
			}
		}
	}
	if !found {
		t.Fatal("RecordQuery stored no exemplar")
	}
	set.Query.RecordQuery(1, time.Millisecond, nil, "") // unsampled: no exemplar
	for i := 0; i < NumBuckets; i++ {
		if set.Query.Latency[1].Exemplar(i) != nil {
			t.Fatal("empty trace ID attached an exemplar")
		}
	}
}
