package main

import (
	"math"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is how the benchmark's spreads are judged.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	xs := []float64{12, 3, 5, 7, 9, 20, 1, 4, 15, 11} // sorted: 1 3 4 5 7 9 11 12 15 20
	for _, c := range []struct{ q, want float64 }{
		{0.25, 3.75}, {0.5, 8}, {0.75, 12.75}, // statistics.quantiles(xs, n=4)
		{0.0, 1}, {1.0, 20}, // clamped to the ends
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 12 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile([]float64{4}, 0.25); got != 4 {
		t.Errorf("one sample: %g", got)
	}
	if got := quantile(nil, 0.25); got != 0 {
		t.Errorf("no samples: %g", got)
	}
}

// One disturbed round must not move a timing's p25, and one pool refill
// must not move a count's median.
func TestRoundEstimators(t *testing.T) {
	calm := []float64{100, 101, 100, 102, 101, 100, 101, 102}
	disturbed := append([]float64{200, 190}, calm...)
	if a, b := p25(calm), p25(disturbed); math.Abs(a-b) > 1 {
		t.Errorf("p25 moved from %g to %g under two slow rounds", a, b)
	}
	counts := []float64{311, 311, 311, 350, 311, 311, 311}
	if got := median(counts); got != 311 {
		t.Errorf("median of counts = %g", got)
	}
	if got := iqrShare([]float64{90, 100, 110, 100, 95, 105, 100}); !near(got, 0.1) {
		t.Errorf("iqrShare = %g, want 0.1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{19, 50}, {99, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if pct := tailPercentile(c.n); pct != c.pct {
			t.Errorf("%d samples: percentile %g, want %g", c.n, pct, c.pct)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 80},
		{ID: 3, Parent: 2, Name: "exec", Start: 10, End: 50, Derived: true},
		{ID: 4, Parent: 3, Name: "step", Start: 10, End: 30, Derived: true},
		{ID: 5, Parent: 3, Name: "step", Start: 30, End: 45, Derived: true},
		// a second tree, whose children overlap and overrun their parent
		{ID: 6, Name: "client", Start: 200, End: 260},
		{ID: 7, Parent: 6, Name: "handler", Start: 210, End: 240},
		{ID: 8, Parent: 6, Name: "handler", Start: 230, End: 300},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"client":  30 + 10,      // 100-70, and 60 minus the 50 covered by [210,260)
		"handler": 30 + 30 + 70, // 70-40; the two of the second tree have no children
		"exec":    5,
		"step":    35,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	// The self times of a well-nested tree add up to its root.
	var sum int64
	for _, ns := range selfTimes(spans[:5]) {
		sum += ns
	}
	if sum != 100 {
		t.Errorf("first tree's self times sum to %d, root lasted 100", sum)
	}
}

func TestRecorderDerivedSpansFollowEachOther(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(0) // must not panic

	r := newRecorder()
	root := r.begin("root", 0)
	r.end(root)
	r.spans[root-1].End = r.spans[root-1].Start + 1000
	a := r.derived("a", root, 300)
	b := r.derived("b", root, 200)
	sa, sb := r.spans[a-1], r.spans[b-1]
	if sa.Start != r.spans[root-1].Start || sb.Start != sa.End || sb.End-sb.Start != 200 {
		t.Errorf("derived spans laid out as %+v, %+v", sa, sb)
	}
	if sa.Request != root || !sa.Derived {
		t.Errorf("derived span %+v", sa)
	}
	if self := selfTimes(r.spans)["root"]; self != 500 {
		t.Errorf("root self = %d, want 500", self)
	}
}

// What BENCHMARK.json declares and what the program prints must be the same
// workloads and metrics, with the same units and directions.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	for _, p := range checkDeclared(bf, names, endToEnd, perLayer) {
		t.Error(p)
	}
	for _, w := range bf.Workloads {
		if got := workloadByName(w.Name); got != nil && got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", w.Name, w.Why, got.why)
		}
	}
}

func TestCheckDeclaredReportsBothDirections(t *testing.T) {
	bf := &benchmarkFile{
		Workloads: []declaredWorkload{{Name: "only-declared"}},
		EndToEnd:  []declaredMetric{{Name: "qps", Unit: "1/s", Better: "lower", Bound: 0.5}},
	}
	problems := checkDeclared(bf, []string{"only-printed"},
		[]metricDef{{"qps", "1/s", "higher"}, {"bq_ms", "ms", "lower"}}, nil)
	// workload each way, direction mismatch, bound out of range, undeclared metric
	if len(problems) != 5 {
		t.Errorf("want 5 problems, got %d: %q", len(problems), problems)
	}
}

func TestNewResultInsistsOnExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "count", "lower"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}, 1, 0); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a": math.NaN(), "b": 2}, 1, 0); err == nil {
		t.Error("NaN was accepted")
	}
	r, err := newResult(defs, map[string]float64{"a": 1.5, "b": 2}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 10 || r.Failed != 1 || r.Metrics["a"] != (metricValue{1.5, "ms"}) {
		t.Errorf("result %+v", r)
	}
}
