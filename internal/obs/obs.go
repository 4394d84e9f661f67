// Package obs is SubZero's stdlib-only observability layer: atomic
// counters, gauges, and fixed-bucket histograms that are lock-free on the
// observation path, plus a metric registry with a hand-rolled Prometheus
// text-format exposition writer (no dependencies).
//
// Design constraints, in priority order:
//
//   - Observation is the hot path: Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations (zero allocations,
//     pinned by TestObservationAllocBounds). Vec lookups cost at most one
//     small allocation for the composite label key; callers on truly hot
//     paths resolve their series once and keep the pointer.
//   - Reading is rare and may be approximate: Snapshot copies counters
//     field by field without a global lock, so a snapshot taken during a
//     storm of observations can be skewed by in-flight updates. Every
//     individual counter is monotonic.
//   - The zero value of every metric is ready to use, so metric bundles
//     embed them directly and tests need no registry.
//
// Histograms use fixed power-of-two buckets over non-negative int64
// values. Durations are observed in nanoseconds and exposed in seconds
// (Unit Nanos); dimensionless values (cells, bytes) are exposed raw.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n. Negative n is a programming error but is
// applied as-is; the exposition layer does not re-check monotonicity.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (in-flight requests, queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of every Histogram. Bucket i holds
// observations in (2^(i-1), 2^i] (bucket 0 holds [0, 1]); the last bucket
// is unbounded. 44 buckets cover [0ns, ~73min] at nanosecond resolution.
const NumBuckets = 44

// Histogram is a fixed-bucket histogram over non-negative int64 values,
// lock-free on the observation path. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	minP1   atomic.Int64 // min+1; 0 means "no observations yet"
	maxP1   atomic.Int64 // max+1; 0 means "no observations yet"
	buckets [NumBuckets]atomic.Int64
	// ex holds the latest exemplar per bucket — a trace ID linking the
	// bucket to a retained trace. Nil entries mean "no exemplar"; the
	// plain Observe path never touches this array.
	ex [NumBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links a histogram bucket to one concrete traced observation,
// in the OpenMetrics sense: a metric spike points straight at a retained
// trace. Immutable once published.
type Exemplar struct {
	TraceID string
	Value   int64
}

// SetExemplar attaches an exemplar to the bucket covering v. It does NOT
// observe v — callers pair it with an Observe of the same value (the
// split keeps Observe allocation-free for untraced requests).
func (h *Histogram) SetExemplar(v int64, traceID string) {
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	h.ex[bucketIndex(v)].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Exemplar returns the latest exemplar of bucket i, or nil.
func (h *Histogram) Exemplar(i int) *Exemplar {
	if i < 0 || i >= NumBuckets {
		return nil
	}
	return h.ex[i].Load()
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(v - 1))
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the unbounded last bucket).
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return 1 << i
}

// Observe records one value. Negative values clamp to zero. Zero
// allocations; safe for concurrent use.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	p := v + 1
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= p {
			break
		}
		if h.minP1.CompareAndSwap(cur, p) {
			break
		}
	}
	for {
		cur := h.maxP1.Load()
		if cur >= p {
			break
		}
		if h.maxP1.CompareAndSwap(cur, p) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram. Fields are
// loaded individually, so a snapshot racing observations can be off by the
// in-flight updates; each field is itself monotonic (except Min).
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Min     int64 // 0 when Count == 0
	Max     int64 // 0 when Count == 0
	Buckets [NumBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if p := h.minP1.Load(); p > 0 {
		s.Min = p - 1
	}
	if p := h.maxP1.Load(); p > 0 {
		s.Max = p - 1
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the average observed value (0 when empty).
func (s *HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the covering bucket, clamped to the observed [Min, Max] range.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		if float64(cum+b) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			if hi > s.Max {
				hi = s.Max
			}
			if lo < s.Min {
				lo = s.Min
			}
			if lo > hi {
				lo = hi
			}
			frac := (rank - float64(cum)) / float64(b)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += b
	}
	return s.Max
}
