package subzero_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"subzero"
)

func TestStrategyNameRoundTrip(t *testing.T) {
	for _, name := range subzero.StrategyNames() {
		s, err := subzero.ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if got := subzero.StrategyName(s); got != name {
			t.Fatalf("StrategyName(ParseStrategy(%q)) = %q", name, got)
		}
		// Case-insensitive parse.
		if _, err := subzero.ParseStrategy(strings.ToLower(name)); err != nil {
			t.Fatalf("ParseStrategy(%q): %v", strings.ToLower(name), err)
		}
	}
	if _, err := subzero.ParseStrategy("NoSuchStrategy"); err == nil {
		t.Fatal("unknown strategy name accepted")
	}
}

func TestWirePlanRoundTrip(t *testing.T) {
	plan := subzero.Plan{
		"a": {subzero.StratMap},
		"b": {subzero.StratFullOne, subzero.StratFullOneFwd},
	}
	wire := subzero.NewWirePlan(plan)
	back, err := wire.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(plan) {
		t.Fatalf("round-trip plan has %d nodes, want %d", len(back), len(plan))
	}
	for node, want := range plan {
		got := back[node]
		if len(got) != len(want) {
			t.Fatalf("node %q: %v != %v", node, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %q strategy %d: %v != %v", node, i, got[i], want[i])
			}
		}
	}
	if _, err := (subzero.WirePlan{"a": {"bogus"}}).Plan(); err == nil {
		t.Fatal("bogus strategy name accepted")
	}
	if p, err := subzero.WirePlan(nil).Plan(); err != nil || p != nil {
		t.Fatalf("nil wire plan: %v, %v", p, err)
	}
}

func TestWireQueryRoundTrip(t *testing.T) {
	q := subzero.ForwardQuery([]uint64{1, 5, 9},
		subzero.Step{Node: "a", InputIdx: 1}, subzero.Step{Node: "b"})
	wire := subzero.NewWireQuery(q)
	// Through JSON, as the server sees it.
	blob, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded subzero.WireQuery
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Query()
	if err != nil {
		t.Fatal(err)
	}
	if back.Direction != q.Direction || len(back.Cells) != len(q.Cells) || len(back.Path) != len(q.Path) {
		t.Fatalf("round trip mangled query: %+v", back)
	}
	for i := range q.Path {
		if back.Path[i] != q.Path[i] {
			t.Fatalf("step %d: %+v != %+v", i, back.Path[i], q.Path[i])
		}
	}
	if _, err := (subzero.WireQuery{Direction: "sideways"}).Query(); err == nil {
		t.Fatal("bad direction accepted")
	}
	// Empty direction defaults to backward.
	bq, err := (subzero.WireQuery{}).Query()
	if err != nil || bq.Direction != subzero.Backward {
		t.Fatalf("empty direction: %v, %v", bq.Direction, err)
	}
}

func TestWireQueryOptionsDefaults(t *testing.T) {
	var nilOpts *subzero.WireQueryOptions
	if got := nilOpts.Options(); got != subzero.DefaultQueryOptions() {
		t.Fatalf("nil options = %+v", got)
	}
	off := false
	got := (&subzero.WireQueryOptions{Dynamic: &off}).Options()
	if got.Dynamic || !got.EntireArray {
		t.Fatalf("partial options = %+v", got)
	}
}

func TestWireConstraintsRoundTrip(t *testing.T) {
	c := subzero.Constraints{MaxDiskBytes: subzero.MB(20), MaxRuntime: 3 * time.Second, Beta: 0.5}
	back := subzero.NewWireConstraints(c).Constraints()
	if back != c {
		t.Fatalf("round trip mangled constraints: %+v != %+v", back, c)
	}
}

// TestWireStoreStatsJSONCompat pins the JSON field names of
// WireStoreStats: once shipped, keys are widened, never renamed.
func TestWireStoreStatsJSONCompat(t *testing.T) {
	ws := subzero.NewWireStoreStats([]subzero.StoreStat{{
		Run: "r1", Node: "n1", Strategy: "<-Full/One",
		Codec: 3, Pairs: 10, StoredBytes: 500, LogicalBytes: 4000,
	}})
	if len(ws) != 1 {
		t.Fatalf("got %d wire stats, want 1", len(ws))
	}
	blob, err := json.Marshal(ws[0])
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	for key, val := range map[string]any{
		"run": "r1", "node": "n1", "strategy": "<-Full/One",
		"codec": 3.0, "pairs": 10.0, "stored_bytes": 500.0,
		"logical_bytes": 4000.0, "ratio": 8.0,
	} {
		got, ok := raw[key]
		if !ok {
			t.Fatalf("key %q missing in %s", key, blob)
		}
		if got != val {
			t.Fatalf("key %q = %v, want %v", key, got, val)
		}
	}
	if got := subzero.NewWireStoreStats(nil); got != nil {
		t.Fatalf("empty inventory = %v, want nil", got)
	}
}

func TestWireWorkloadProfileEmpty(t *testing.T) {
	p := subzero.NewWireWorkloadProfile(nil)
	if p.BackwardQueries != 0 || p.ForwardQueries != 0 || len(p.Classes) != 0 || len(p.Operators) != 0 {
		t.Fatalf("nil set produced non-zero profile: %+v", p)
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"backward_queries", "forward_queries", "query_cells",
		"fallbacks", "region_span_p50_cells", "region_span_p95_cells", "region_span_p99_cells", "classes"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("key %q missing in %s", key, blob)
		}
	}
}
