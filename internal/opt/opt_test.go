package opt_test

import (
	"context"
	"testing"
	"time"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/ops"
	"subzero/internal/opt"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// payUDF is a payload-only UDF: each output cell depends on a radius-1
// neighborhood, recorded as payload lineage (or full pairs when traced).
type payUDF struct {
	workflow.Meta
}

func newPayUDF() *payUDF {
	return &payUDF{Meta: workflow.Meta{
		OpName: "payudf",
		NIn:    1,
		Modes:  []lineage.Mode{lineage.Full, lineage.Pay},
	}}
}

func (u *payUDF) OutShape(in []grid.Shape) (grid.Shape, error) { return workflow.SameShapeOut(in) }

func (u *payUDF) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	in := ins[0]
	out, err := array.New(u.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	sp := in.Space()
	coord := make(grid.Coord, sp.Rank())
	var neigh []uint64
	outBuf := make([]uint64, 1)
	for idx := uint64(0); idx < sp.Size(); idx++ {
		out.Set(idx, in.Get(idx)+1)
		outBuf[0] = idx
		if rc.NeedsPairs() {
			sp.UnravelInto(idx, coord)
			neigh = grid.Neighborhood(sp, coord, 1, neigh[:0])
			if err := rc.LWrite(outBuf, neigh); err != nil {
				return nil, err
			}
		}
		if rc.Modes().Has(lineage.Pay) {
			if err := rc.LWritePayload(outBuf, []byte{1}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (u *payUDF) MapP(mc *workflow.MapCtx, out uint64, payload []byte, _ int, dst []uint64) []uint64 {
	return grid.Neighborhood(mc.InSpaces[0], mc.OutCoord(out), int(payload[0]), dst)
}

// profiledRun executes scale -> payudf with profiling lineage (Full + Pay
// on the UDF, Map on the built-in).
func profiledRun(t *testing.T) (*workflow.Executor, *workflow.Run) {
	t.Helper()
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	spec := workflow.NewSpec("opt-test")
	spec.Add("scale", ops.NewUnary("scale", func(x float64) float64 { return x * 3 }), workflow.FromExternal("src"))
	spec.Add("udf", newPayUDF(), workflow.FromNode("scale"))

	src := array.MustNew("src", grid.Shape{20, 20})
	for i := range src.Data() {
		src.Data()[i] = float64(i % 7)
	}
	plan := workflow.Plan{
		"scale": {lineage.StratMap},
		"udf":   {lineage.StratFullOne, lineage.StratPayOne},
	}
	run, err := exec.Execute(context.Background(), spec, plan, map[string]*array.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	return exec, run
}

var sampleWorkload = []query.Query{
	{Direction: query.Backward, Cells: []uint64{5, 6, 7}, Path: []query.Step{{Node: "udf"}, {Node: "scale"}}},
	{Direction: query.Backward, Cells: []uint64{100}, Path: []query.Step{{Node: "udf"}}},
	{Direction: query.Forward, Cells: []uint64{3}, Path: []query.Step{{Node: "scale"}, {Node: "udf"}}},
}

func TestOptimizerPicksMapForBuiltins(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	scale := rep.Plan.Strategies("scale")
	found := false
	for _, s := range scale {
		if s == lineage.StratMap {
			found = true
		}
		if s.StoresPairs() {
			t.Fatalf("optimizer materialized lineage for a mapping operator: %v", scale)
		}
	}
	if !found {
		t.Fatalf("mapping operator not assigned Map: %v", scale)
	}
}

func TestOptimizerUnboundedPicksStores(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	udf := rep.Plan.Strategies("udf")
	backward := false
	for _, s := range udf {
		if s.StoresPairs() && s.Orient == lineage.BackwardOpt {
			backward = true
		}
	}
	if !backward {
		t.Fatalf("unbounded optimizer left UDF without backward lineage: %v", udf)
	}
}

func TestOptimizerTightBudgetFallsBackToBlackbox(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{MaxDiskBytes: 10}) // 10 bytes: nothing fits
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Plan["udf"]; ok {
		t.Fatalf("udf should be blackbox under a 10-byte budget, got %v", rep.Plan["udf"])
	}
	if rep.DiskBytes > 10 {
		t.Fatalf("plan disk %d exceeds budget", rep.DiskBytes)
	}
}

func TestOptimizerRespectsBudgetExactly(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	// Find a budget between the cheapest and the full store cost.
	unbounded, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	budget := unbounded.DiskBytes / 2
	if budget == 0 {
		t.Skip("plan too small to halve")
	}
	o2 := opt.New(run, exec.Stats())
	rep, err := o2.Choose(context.Background(), sampleWorkload, opt.Constraints{MaxDiskBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiskBytes > budget {
		t.Fatalf("plan disk %d exceeds budget %d", rep.DiskBytes, budget)
	}
}

func TestOptimizerObjectiveMonotoneInBudget(t *testing.T) {
	exec, run := profiledRun(t)
	var prev float64 = -1
	for _, budget := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 26, 0} {
		o := opt.New(run, exec.Stats())
		rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{MaxDiskBytes: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if prev >= 0 && rep.Objective > prev*1.0001 {
			t.Fatalf("objective increased with larger budget: %g -> %g", prev, rep.Objective)
		}
		prev = rep.Objective
	}
}

func TestOptimizerForcedStrategy(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	o.Force("udf", lineage.StratPayMany)
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rep.Plan.Strategies("udf") {
		if s == lineage.StratPayMany {
			found = true
		}
	}
	if !found {
		t.Fatalf("forced strategy not in plan: %v", rep.Plan["udf"])
	}
}

func TestOptimizerForcedUnavailable(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	o.Force("scale", lineage.StratPayOne) // built-ins don't support Pay
	if _, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{}); err == nil {
		t.Fatal("forcing an unsupported strategy should fail")
	}
}

func TestOptimizerEmptyWorkload(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	if _, err := o.Choose(context.Background(), nil, opt.Constraints{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// The chosen plan must actually be executable and answer queries
// identically to black-box: optimizer output feeds back into the executor.
func TestOptimizedPlanRoundTrip(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth from the profiling run via tracing only.
	truthExec := query.New(run, exec.Stats(), query.Options{})
	q := sampleWorkload[0]
	truthRes, err := truthExec.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	src := array.MustNew("src", grid.Shape{20, 20})
	for i := range src.Data() {
		src.Data()[i] = float64(i % 7)
	}
	run2, err := exec.Execute(context.Background(), run.Spec, rep.Plan, map[string]*array.Array{"src": src})
	if err != nil {
		t.Fatalf("optimized plan failed to execute: %v", err)
	}
	qe := query.New(run2, exec.Stats(), query.DefaultOptions())
	res, err := qe.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	a, b := truthRes.Cells(), res.Cells()
	if len(a) != len(b) {
		t.Fatalf("optimized plan answers differently: %d vs %d cells", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("optimized plan answers differently")
		}
	}
}

func TestOptimizerRuntimeConstraint(t *testing.T) {
	exec, run := profiledRun(t)
	o := opt.New(run, exec.Stats())
	rep, err := o.Choose(context.Background(), sampleWorkload, opt.Constraints{MaxRuntime: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime > time.Nanosecond {
		t.Fatalf("plan runtime %v exceeds constraint", rep.Runtime)
	}
	if _, ok := rep.Plan["udf"]; ok {
		t.Fatalf("udf must be blackbox under a 1ns runtime budget: %v", rep.Plan["udf"])
	}
}
