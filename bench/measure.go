package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"subzero"
	"subzero/internal/lineage"
)

// roundStat is one timed round. Times are sums of the calls' own durations:
// the harness's answer checking between calls is not in them.
type roundStat struct {
	total, backward, forward time.Duration
	nBackward, nForward      int
	mallocs, allocBytes      uint64
	took                     []time.Duration // per op, in round order
	cellsOut, fellBack       int             // answer cells, steps that fell back
}

// askFunc sends one op to some level of the stack.
type askFunc func(ctx context.Context, o *op, rec *recorder) (answer, time.Duration, error)

// maxRounds bounds a run whose rounds turn out far shorter than sized for.
const maxRounds = 2000

// timedRounds runs rounds of the mix until the deadline has passed and at
// least atLeast are done, one call after another on this goroutine. Every
// answer is checked against the verified one. from is the index of the
// first round, which matters to the workload that walks a pool.
func timedRounds(ctx context.Context, e *env, ask askFunc, rec *recorder, from, atLeast int, deadline time.Time, t *tally) []roundStat {
	var stats []roundStat
	var before, after runtime.MemStats
	for i := 0; i < maxRounds && (i < atLeast || time.Now().Before(deadline)); i++ {
		var rs roundStat
		runtime.ReadMemStats(&before)
		for _, o := range e.round(from + i) {
			a, took, err := ask(ctx, o, rec)
			t.check(err == nil && fingerprintOf(a.cells) == o.want, "%s: wrong answer in timed round (%v)", o.name, err)
			rs.total += took
			rs.took = append(rs.took, took)
			rs.cellsOut += len(a.cells)
			if o.q.Direction == subzero.Forward {
				rs.forward += took
				rs.nForward++
			} else {
				rs.backward += took
				rs.nBackward++
			}
			for _, st := range a.steps {
				if st.fellBack {
					rs.fellBack++
				}
			}
			if rec != nil && err == nil {
				deriveSpans(rec, a)
			}
		}
		runtime.ReadMemStats(&after)
		rs.mallocs = after.Mallocs - before.Mallocs
		rs.allocBytes = after.TotalAlloc - before.TotalAlloc
		stats = append(stats, rs)
	}
	return stats
}

// over maps rounds to one float each.
func over(stats []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(stats))
	for i, rs := range stats {
		out[i] = f(rs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// qpsOf is queries per round over the lower-quartile round time.
func qpsOf(e *env, stats []roundStat) float64 {
	return float64(e.perRound) / p25(over(stats, func(r roundStat) float64 { return r.total.Seconds() }))
}

// storeSignature is every store's size and pair count, in a fixed order
// (EachStore walks a map): what must not change from one capture of the
// same inputs to the next.
func (e *env) storeSignature() []string {
	var sig []string
	for i, run := range e.runs {
		run.EachStore(func(node string, st *lineage.Store) {
			sig = append(sig, fmt.Sprintf("%d/%s/%s: %d B, %d pairs", i, node, st.Strategy(), st.SizeBytes(), st.NumPairs()))
		})
	}
	sort.Strings(sig)
	return sig
}

// heapMB is the live heap after two forced collections (the second empties
// what the first moved to the pools' victim caches).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// untraced is the pass that yields the end-to-end metrics: the workload is
// set up several times, each set-up giving a sample of setup_s and of
// capture_s, the last set-up's answers are verified, and then the mix is
// timed in rounds of identical work until the run's seconds are used up.
func untraced(ctx context.Context, w *workload, seed int64, seconds float64, scratch string) (*result, error) {
	start := time.Now()
	var t tally
	var setups, captures []float64
	var e *env
	var signature []string
	for i := 0; i < w.setups; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(ctx, w, seed, scratch, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, e.setup.Seconds())
		captures = append(captures, e.capture.Seconds())
		sig := e.storeSignature()
		if i == 0 {
			signature = sig
		}
		t.check(slices.Equal(sig, signature), "set-up %d stored other lineage bytes or pairs than set-up 0", i)
	}
	defer e.close()
	// The heap is read here, where it holds the set-up and one warm-up
	// round: after verification the stores' record caches are at whatever
	// point of their fill-and-clear cycle the seed's pool left them.
	heap := heapMB()
	if _, err := e.verify(ctx, &t); err != nil {
		return nil, err
	}
	runtime.GC()
	stats := timedRounds(ctx, e, e.ask, nil, 1, w.minRounds, start.Add(time.Duration(seconds*float64(time.Second))), &t)

	var bytes, pairs int64
	e.stores(func(st *lineage.Store) {
		bytes += st.SizeBytes()
		pairs += int64(st.NumPairs())
	})
	source, err := e.sourceBytes()
	if err != nil {
		return nil, err
	}
	perQuery := float64(e.perRound)
	values := map[string]float64{
		"setup_s":                median(setups),
		"capture_s":              p25(captures),
		"lineage_bytes_per_pair": float64(bytes) / float64(pairs),
		"storage_overhead_x":     float64(bytes) / float64(source),
		"heap_mb":                heap,
		"qps":                    qpsOf(e, stats),
		"bq_ms":                  p25(over(stats, func(r roundStat) float64 { return ms(r.backward) / float64(r.nBackward) })),
		"fq_ms":                  p25(over(stats, func(r roundStat) float64 { return ms(r.forward) / float64(r.nForward) })),
		"allocs_per_query":       median(over(stats, func(r roundStat) float64 { return float64(r.mallocs) / perQuery })),
		"alloc_kb_per_query":     median(over(stats, func(r roundStat) float64 { return float64(r.allocBytes) / perQuery / 1024 })),
	}
	if t.failed > 0 {
		fmt.Printf("first failure: %s\n", t.firstFailure)
	}
	return newResult(endToEnd, values, t.attempted, t.failed)
}
