package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// endToEnd is what a user of the system sees; every workload reports every
// one of them from the untraced pass. BENCHMARK.json carries the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"capture_s", "s", "lower"},
	{"lineage_bytes_per_pair", "B", "lower"},
	{"storage_overhead_x", "ratio", "lower"},
	{"heap_mb", "MB", "lower"},
	{"qps", "1/s", "higher"},
	{"bq_ms", "ms", "lower"},
	{"fq_ms", "ms", "lower"},
	{"allocs_per_query", "count", "lower"},
	{"alloc_kb_per_query", "KB", "lower"},
}

// perLayer is what single layers do; every workload reports every one of
// them from the traced pass. README.md says which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	// client and internal/server, the workload's mix over loopback HTTP.
	{"http.request_us", "us", "lower"},
	{"http.handler_us", "us", "lower"},
	{"http.client_self_us", "us", "lower"},
	{"http.handler_self_us", "us", "lower"},
	{"http.self_share_pct", "%", "lower"},
	{"http.resp_bytes_per_query", "B", "lower"},
	{"http.conc2_qps", "1/s", "higher"},
	// root System, the same mix in process.
	{"system.query_us", "us", "lower"},
	{"system.batch_overhead_us", "us", "lower"},
	{"system.batch_par2_speedup_x", "ratio", "higher"},
	{"system.bq_tail_ms", "ms", "lower"},
	{"system.fq_tail_ms", "ms", "lower"},
	{"system.tail_pct", "%", "higher"},
	{"system.tail_samples", "count", "higher"},
	// internal/query, from the executor's own step reports.
	{"query.exec_self_us", "us", "lower"},
	{"query.step_us", "us", "lower"},
	{"query.lookup_step_pct", "%", "lower"},
	{"query.steps_per_query", "count", "lower"},
	{"query.fallback_ratio", "ratio", "lower"},
	{"query.cells_out_per_query", "count", "lower"},
	// internal/lineage, direct Store calls on the probe stores.
	{"lineage.backward_us.full-one", "us", "lower"},
	{"lineage.backward_us.full-many", "us", "lower"},
	{"lineage.backward_us.pay-one", "us", "lower"},
	{"lineage.forward_us.full-one-fwd", "us", "lower"},
	{"lineage.hot_backward_us", "us", "lower"},
	{"lineage.scan_ms", "ms", "lower"},
	{"lineage.direct_share_pct", "%", "higher"},
	{"lineage.write_us_per_pair.full-one", "us", "lower"},
	{"lineage.write_us_per_pair.full-many", "us", "lower"},
	{"lineage.write_us_per_pair.full-one-fwd", "us", "lower"},
	{"lineage.write_us_per_pair.pay-one", "us", "lower"},
	{"lineage.write_us_per_pair", "us", "lower"},
	// sharded ingest, the workload's runs captured with two shards on two Ps.
	{"ingest.sharded_capture_s", "s", "lower"},
	{"ingest.enqueue_stall_ms", "ms", "lower"},
	{"ingest.drain_ms", "ms", "lower"},
	{"ingest.encode_ms", "ms", "lower"},
	// internal/binenc and internal/rtree kernels on the probe's cell sets.
	{"binenc.encode_ns_per_cell", "ns", "lower"},
	{"binenc.decode_ns_per_cell", "ns", "lower"},
	{"rtree.search_us", "us", "lower"},
	// internal/kvstore: the System's own counters, then direct calls.
	{"kvstore.getbatch_calls_per_query", "count", "lower"},
	{"kvstore.keys_read_per_query", "count", "lower"},
	{"kvstore.bytes_read_per_query", "B", "lower"},
	{"kvstore.getbatch_us_per_query", "us", "lower"},
	{"kvstore.mem_getbatch_us", "us", "lower"},
	{"kvstore.file_getbatch_us", "us", "lower"},
	{"kvstore.putbatch_us", "us", "lower"},
	{"kvstore.flush_ms", "ms", "lower"},
	{"kvstore.log_bytes_per_live_byte", "ratio", "lower"},
	// internal/workflow and internal/opt.
	{"workflow.blackbox_s", "s", "lower"},
	{"workflow.capture_overhead_x", "ratio", "lower"},
	{"workflow.drop_ms", "ms", "lower"},
	{"opt.choose_ms", "ms", "lower"},
	// the harness itself.
	{"bench.rounds", "count", "higher"},
	{"bench.round_iqr_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.span_sum_error_pct", "%", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills Metrics from values and insists that values holds exactly
// the metrics of defs: a metric the program forgot, or one it invented, is
// an error of the harness and not a result.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	r := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return r, nil
}

// print writes every metric by name with its unit, then the JSON line.
func (r *result) print(w io.Writer, workload string) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", workload, r.Attempted, r.Failed)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
