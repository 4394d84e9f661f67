package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4},
		{1 << 42, 42},
		{1<<42 + 1, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0 // Observe clamps before indexing
		}
		if got := bucketIndex(v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose bound contains it.
	for _, v := range []int64{0, 1, 2, 3, 100, 999, 1 << 20, 1 << 43} {
		i := bucketIndex(v)
		if v > BucketBound(i) {
			t.Errorf("value %d above bound of its bucket %d (%d)", v, i, BucketBound(i))
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Errorf("value %d belongs in an earlier bucket than %d", v, i)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 20, 30, 40, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1100 {
		t.Fatalf("sum = %d, want 1100", s.Sum)
	}
	if s.Min != 10 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 10/1000", s.Min, s.Max)
	}
	if got := s.Mean(); got != 220 {
		t.Fatalf("mean = %d, want 220", got)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	p95 := s.Quantile(0.95)
	p99 := s.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d", p50, p95, p99)
	}
	// Power-of-two buckets are coarse; accept the right bucket's range.
	if p50 < 256 || p50 > 512 {
		t.Errorf("p50 = %d, want within (256, 512]", p50)
	}
	if p99 < 512 || p99 > 1000 {
		t.Errorf("p99 = %d, want within (512, 1000]", p99)
	}
	if s.Quantile(1.0) != 1000 {
		t.Errorf("p100 = %d, want 1000", s.Quantile(1.0))
	}

	var empty Histogram
	es := empty.Snapshot()
	if es.Quantile(0.5) != 0 || es.Mean() != 0 {
		t.Errorf("empty histogram quantile/mean nonzero")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-5 * time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

// TestObservationAllocBounds pins the ISSUE's hot-path budget: plain
// observations are allocation-free and vec lookups cost at most one
// allocation (the composite label key).
func TestObservationAllocBounds(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v times", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v times", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v times", n)
	}

	r := NewRegistry()
	cv := r.NewCounterVec("c_total", "h", Raw, "a")
	cv.With1("x").Inc() // create the series outside the measured loop
	if n := testing.AllocsPerRun(100, func() { cv.With1("x").Inc() }); n != 0 {
		t.Errorf("CounterVec.With1 steady state allocates %v times", n)
	}
	cv2 := r.NewCounterVec("c2_total", "h", Raw, "a", "b")
	cv2.With2("x", "y").Inc()
	if n := testing.AllocsPerRun(100, func() { cv2.With2("x", "y").Inc() }); n > 1 {
		t.Errorf("CounterVec.With2 steady state allocates %v times, want <=1", n)
	}

	set := NewSet()
	if n := testing.AllocsPerRun(100, func() { set.Query.ObserveStep(SpanStore, time.Millisecond) }); n != 0 {
		t.Errorf("QueryObs.ObserveStep allocates %v times", n)
	}
	kv := &set.KV
	if n := testing.AllocsPerRun(100, func() {
		kv.GetBatches.Inc()
		kv.KeysRead.Inc()
		kv.BytesRead.Add(128)
	}); n != 0 {
		t.Errorf("KV counter path allocates %v times", n)
	}
}

// TestObserveStep checks that every step class reaches its own
// pre-resolved series and that an unknown class lands in "other".
func TestObserveStep(t *testing.T) {
	set := NewSet()
	for i, class := range stepClasses {
		set.Query.ObserveStep(class, time.Duration(i+1))
	}
	set.Query.ObserveStep("no-such-class", 100)
	for i, class := range stepClasses {
		wantN, wantSum := int64(1), int64(i+1)
		if class == SpanOther {
			wantN, wantSum = 2, wantSum+100
		}
		if n, sum := set.Query.Steps.With1(class).Load(), set.Query.StepLatency.With1(class).Sum(); n != wantN || sum != wantSum {
			t.Errorf("class %s: count %d sum %d, want %d and %d", class, n, sum, wantN, wantSum)
		}
	}
}

func TestRecordQuery(t *testing.T) {
	set := NewSet()
	set.Query.RecordQuery(0, time.Millisecond, []uint64{10, 4, 30}, "")
	set.Query.RecordQuery(1, 2*time.Millisecond, []uint64{7}, "")
	if set.Query.Backward.Load() != 1 || set.Query.Forward.Load() != 1 {
		t.Fatalf("direction counters = %d/%d, want 1/1",
			set.Query.Backward.Load(), set.Query.Forward.Load())
	}
	if got := set.Query.Cells.Load(); got != 4 {
		t.Fatalf("cells = %d, want 4", got)
	}
	rs := set.Query.RegionSpan.Snapshot()
	if rs.Count != 2 || rs.Max != 27 || rs.Min != 1 {
		t.Fatalf("region span snapshot = %+v, want count 2, min 1, max 27", rs)
	}
	if b, f := set.Query.Latency[0].Snapshot().Count, set.Query.Latency[1].Snapshot().Count; b != 1 || f != 1 {
		t.Fatalf("latency counts = %d/%d, want 1/1", b, f)
	}
}

func TestVecEach(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("hits_total", "h", Raw, "node", "path")
	cv.With2("a", "store").Add(3)
	cv.With2("b", "map").Add(5)
	got := map[string]int64{}
	cv.Each(func(values []string, count int64) {
		got[values[0]+"/"+values[1]] = count
	})
	if len(got) != 2 || got["a/store"] != 3 || got["b/map"] != 5 {
		t.Fatalf("Each = %v", got)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("x_total", "h", Raw, "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	cv.With1("only-one")
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "h", Raw)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family did not panic")
		}
	}()
	r.NewCounter("dup_total", "again", Raw)
}

// TestConcurrentObserveAndWrite exercises the lock-free observation path
// against concurrent exposition under -race.
func TestConcurrentObserveAndWrite(t *testing.T) {
	set := NewSet()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set.Query.RecordQuery(0, time.Microsecond, []uint64{1, 2, 3}, "")
				set.Query.ObserveStep(SpanStore, time.Microsecond)
				set.KV.GetBatchLatency.Observe(100)
				set.HTTP.InFlight.Add(1)
				set.HTTP.InFlight.Add(-1)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := set.Registry.WriteProm(&sb); err != nil {
			t.Errorf("WriteProm: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
