package query_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// slowMask wraps maskUDF so the cost relationships are deterministic:
// Run takes ~8ms (a comfortably large re-execution budget, so the cheap-
// looking store is chosen), while map_p costs ~200µs per call (so the
// chosen payload lookup needs ~20ms for 100 cells and must blow through
// the budget mid-flight).
type slowMask struct {
	*maskUDF
}

func (s *slowMask) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	time.Sleep(8 * time.Millisecond)
	return s.maskUDF.Run(rc, ins)
}

func (s *slowMask) MapP(mc *workflow.MapCtx, out uint64, payload []byte, i int, dst []uint64) []uint64 {
	time.Sleep(200 * time.Microsecond)
	return s.maskUDF.MapP(mc, out, payload, i, dst)
}

// TestDynamicFallbackTriggersAndStaysCorrect forces the query-time
// optimizer's monitored abort: the store access is chosen on its (cheap)
// estimate, turns out to be pathologically slow, exceeds the re-execution
// budget, and the executor must abandon it, re-run the operator, and
// still return the correct answer (paper §VII-A: "the optimizer limits
// the query performance degradation to 2x by dynamically switching to the
// BlackBox strategy").
func TestDynamicFallbackTriggersAndStaysCorrect(t *testing.T) {
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	spec := workflow.NewSpec("fallback")
	spec.Add("mask", &slowMask{newMaskUDF()}, workflow.FromExternal("src"))
	src := array.MustNew("src", grid.Shape{10, 10})
	for i := range src.Data() {
		src.Data()[i] = 1.0 // every cell bright: every cell has a payload
	}
	run, err := exec.Execute(context.Background(), spec, workflow.Plan{"mask": {lineage.StratPayOne}},
		map[string]*array.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Direction: query.Backward,
		Cells:     manyCells(100),
		Path:      []query.Step{{Node: "mask"}},
	}
	// Ground truth from tracing (static executor never consults map_p
	// when re-executing).
	want := resultCells(t, query.New(run, nil, query.Options{}), q)

	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: true})
	res, err := qe.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(res.Cells(), want) {
		t.Fatalf("fallback changed the answer: %d cells, want %d", len(res.Cells()), len(want))
	}
	step := res.Steps[0]
	if !step.FellBack {
		t.Fatalf("expected dynamic fallback, got access path %q", step.AccessPath)
	}
	if !strings.Contains(step.AccessPath, query.PathReexec) {
		t.Fatalf("fallback path label %q missing reexec", step.AccessPath)
	}
}

// manyCells returns n distinct cells of the 10x10 test array.
func manyCells(n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n && i < 100; i++ {
		out = append(out, uint64(i))
	}
	return out
}

// TestDynamicPrefersCheapestPath checks cost-based selection directly:
// with both a matched store and mapping functions assigned, the dynamic
// executor must not pick the mismatched scan.
func TestDynamicPrefersCheapestPath(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{
		lineage.StratFullOne, lineage.StratFullOneFwd,
	}))
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: true})
	res, err := qe.Execute(context.Background(), query.Query{
		Direction: query.Backward,
		Cells:     []uint64{55},
		Path:      []query.Step{{Node: "mask"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Steps[0].AccessPath; strings.Contains(got, query.PathStoreScan) {
		t.Fatalf("dynamic optimizer picked the mismatched scan: %q", got)
	}
}

// TestStaticPrefersMatchedStore pins the static preference order:
// matched-orientation stores beat mismatched ones.
func TestStaticPrefersMatchedStore(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{
		lineage.StratFullOneFwd, lineage.StratFullOne,
	}))
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
	res, err := qe.Execute(context.Background(), query.Query{
		Direction: query.Backward,
		Cells:     []uint64{55},
		Path:      []query.Step{{Node: "mask"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Steps[0].AccessPath; got != query.PathStore+"(<-Full/One)" {
		t.Fatalf("static executor used %q, want the matched store", got)
	}
}
