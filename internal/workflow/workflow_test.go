package workflow_test

import (
	"context"
	"strings"
	"testing"

	"subzero/internal/array"
	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/ops"
	"subzero/internal/workflow"
)

func newExecutor(t *testing.T) *workflow.Executor {
	t.Helper()
	return newExecutorOver(t, array.NewVersions())
}

// newExecutorOver builds an executor storing arrays in versions.
func newExecutorOver(t *testing.T, versions *array.Versions) *workflow.Executor {
	t.Helper()
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return workflow.NewExecutor(versions, mgr, lineage.NewCollector())
}

func twoStepSpec(t *testing.T) *workflow.Spec {
	t.Helper()
	spec := workflow.NewSpec("test")
	spec.Add("double", ops.NewUnary("double", func(x float64) float64 { return 2 * x }),
		workflow.FromExternal("src"))
	spec.Add("inc", ops.NewUnary("inc", func(x float64) float64 { return x + 1 }),
		workflow.FromNode("double"))
	return spec
}

func sourceArray(v ...float64) *array.Array {
	a := array.MustNew("src", grid.Shape{1, len(v)})
	copy(a.Data(), v)
	return a
}

func TestSpecValidation(t *testing.T) {
	spec := workflow.NewSpec("bad")
	spec.Add("a", ops.NewUnary("id", func(x float64) float64 { return x }), workflow.FromNode("ghost"))
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("unknown producer not caught: %v", err)
	}

	spec2 := workflow.NewSpec("unwired")
	spec2.Add("a", ops.NewUnary("id", func(x float64) float64 { return x }), workflow.Input{})
	if err := spec2.Validate(); err == nil || !strings.Contains(err.Error(), "unwired") {
		t.Fatalf("unwired input not caught: %v", err)
	}

	add := ops.NewBinary("add", func(a, b float64) float64 { return a + b })
	cyc := workflow.NewSpec("cycle")
	cyc.Add("x", add, workflow.FromNode("y"), workflow.FromExternal("s"))
	cyc.Add("y", add, workflow.FromNode("x"), workflow.FromExternal("s"))
	if err := cyc.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not caught: %v", err)
	}
}

func TestSpecPanicsOnMisuse(t *testing.T) {
	spec := workflow.NewSpec("p")
	op := ops.NewUnary("id", func(x float64) float64 { return x })
	spec.Add("a", op, workflow.FromExternal("s"))
	assertPanics(t, func() { spec.Add("a", op, workflow.FromExternal("s")) })
	assertPanics(t, func() { spec.Add("b", op) }) // arity mismatch
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestTopoOrder(t *testing.T) {
	spec := workflow.NewSpec("diamond")
	id := func(x float64) float64 { return x }
	add := ops.NewBinary("add", func(a, b float64) float64 { return a + b })
	spec.Add("left", ops.NewUnary("l", id), workflow.FromExternal("s"))
	spec.Add("right", ops.NewUnary("r", id), workflow.FromExternal("s"))
	spec.Add("join", add, workflow.FromNode("left"), workflow.FromNode("right"))

	order, err := spec.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	if pos["join"] < pos["left"] || pos["join"] < pos["right"] {
		t.Fatalf("topo order wrong: %v", pos)
	}
}

func TestExecuteBlackbox(t *testing.T) {
	versions := array.NewVersions()
	e := newExecutorOver(t, versions)
	run, err := e.Execute(context.Background(), twoStepSpec(t), nil, map[string]*array.Array{"src": sourceArray(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Output("inc")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 5, 7}
	for i, v := range want {
		if out.Get(uint64(i)) != v {
			t.Fatalf("output=%v, want %v", out.Data(), want)
		}
	}
	if run.LineageBytes() != 0 {
		t.Fatal("blackbox run should store no lineage")
	}
	if len(run.Stores("double")) != 0 {
		t.Fatal("blackbox node has stores")
	}
	// Intermediate results must be in the versioned store (no-overwrite).
	if _, err := versions.Latest(run.ID + "/double"); err != nil {
		t.Fatal("intermediate result not versioned")
	}
	if _, err := versions.Latest("src"); err != nil {
		t.Fatal("source not versioned")
	}
}

func TestExecuteWithFullLineage(t *testing.T) {
	e := newExecutor(t)
	plan := workflow.Plan{
		"double": {lineage.StratFullOne},
		"inc":    {lineage.StratFullMany, lineage.StratFullOneFwd},
	}
	run, err := e.Execute(context.Background(), twoStepSpec(t), plan, map[string]*array.Array{"src": sourceArray(1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Stores("double")) != 1 || len(run.Stores("inc")) != 2 {
		t.Fatalf("store counts wrong: %d, %d", len(run.Stores("double")), len(run.Stores("inc")))
	}
	if run.LineageBytes() <= 0 {
		t.Fatal("no lineage bytes recorded")
	}
	// The store must answer a backward query: inc output cell 2 -> double
	// output cell 2.
	st := run.Stores("inc")[0]
	mc, err := run.MapCtx("inc")
	if err != nil {
		t.Fatal(err)
	}
	q := bitmap.FromCells(mc.OutSpace, []uint64{2})
	dst := bitmap.New(mc.InSpaces[0])
	if err := st.Backward(q, dst, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Get(2) || dst.Count() != 1 {
		t.Fatalf("lineage wrong: %d cells", dst.Count())
	}
	// Stats were recorded.
	st2 := e.Stats().Get("inc")
	if st2.Runs != 1 || st2.Pairs != 4 {
		t.Fatalf("stats=%+v", st2)
	}
}

func TestExecuteRejectsUnsupportedMode(t *testing.T) {
	e := newExecutor(t)
	plan := workflow.Plan{"double": {lineage.StratPayOne}} // built-ins don't do Pay
	_, err := e.Execute(context.Background(), twoStepSpec(t), plan, map[string]*array.Array{"src": sourceArray(1)})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("unsupported mode accepted: %v", err)
	}
}

func TestExecuteMissingSource(t *testing.T) {
	e := newExecutor(t)
	_, err := e.Execute(context.Background(), twoStepSpec(t), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Fatalf("missing source accepted: %v", err)
	}
}

func TestExecuteSourceFromVersions(t *testing.T) {
	e := newExecutor(t)
	// First run registers "src"; second run omits sources and resolves it
	// from the versioned store.
	if _, err := e.Execute(context.Background(), twoStepSpec(t), nil, map[string]*array.Array{"src": sourceArray(5)}); err != nil {
		t.Fatal(err)
	}
	run2, err := e.Execute(context.Background(), twoStepSpec(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := run2.Output("inc")
	if out.Get(0) != 11 {
		t.Fatalf("second run output=%v", out.Get(0))
	}
}

func TestReexecuteTracing(t *testing.T) {
	e := newExecutor(t)
	run, err := e.Execute(context.Background(), twoStepSpec(t), nil, map[string]*array.Array{"src": sourceArray(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var pairs int
	dur, err := run.Reexecute(context.Background(), "double", func(rp *lineage.RegionPair) error {
		pairs++
		if len(rp.Out) != 1 || len(rp.Ins) != 1 {
			t.Fatalf("unexpected pair %+v", rp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 3 {
		t.Fatalf("traced %d pairs, want 3", pairs)
	}
	if dur <= 0 {
		t.Fatal("no duration")
	}
}

// blackboxOnlyOp supports no lineage API at all.
type blackboxOnlyOp struct {
	workflow.Meta
}

func (o *blackboxOnlyOp) OutShape(in []grid.Shape) (grid.Shape, error) {
	return workflow.SameShapeOut(in)
}

func (o *blackboxOnlyOp) Run(_ *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	return ins[0].Clone().WithName("opaque"), nil
}

func TestReexecuteNoTracing(t *testing.T) {
	e := newExecutor(t)
	spec := workflow.NewSpec("opaque")
	spec.Add("udf", &blackboxOnlyOp{Meta: workflow.Meta{OpName: "opaque", NIn: 1}}, workflow.FromExternal("src"))
	run, err := e.Execute(context.Background(), spec, nil, map[string]*array.Array{"src": sourceArray(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Reexecute(context.Background(), "udf", func(*lineage.RegionPair) error { return nil }); err != workflow.ErrNoTracing {
		t.Fatalf("err=%v, want ErrNoTracing", err)
	}
}

// shapeLiar declares one shape but produces another.
type shapeLiar struct {
	workflow.Meta
}

func (o *shapeLiar) OutShape(in []grid.Shape) (grid.Shape, error) { return grid.Shape{9, 9}, nil }

func (o *shapeLiar) Run(_ *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	return array.New("liar", grid.Shape{2, 2})
}

func TestExecuteShapeMismatch(t *testing.T) {
	e := newExecutor(t)
	spec := workflow.NewSpec("liar")
	spec.Add("liar", &shapeLiar{Meta: workflow.Meta{OpName: "liar", NIn: 1}}, workflow.FromExternal("src"))
	_, err := e.Execute(context.Background(), spec, nil, map[string]*array.Array{"src": sourceArray(1)})
	if err == nil || !strings.Contains(err.Error(), "produced shape") {
		t.Fatalf("shape mismatch accepted: %v", err)
	}
}

func TestPlanDefaults(t *testing.T) {
	p := workflow.Plan{}
	s := p.Strategies("anything")
	if len(s) != 1 || s[0] != lineage.StratBlackbox {
		t.Fatalf("default strategies=%v", s)
	}
}

func TestRunCtxNilWriter(t *testing.T) {
	rc := workflow.NewRunCtx(lineage.NewModeSet(lineage.Blackbox), nil)
	if err := rc.LWrite([]uint64{1}, []uint64{2}); err != nil {
		t.Fatal("nil-writer LWrite must be a no-op")
	}
	if err := rc.LWritePayload([]uint64{1}, nil); err != nil {
		t.Fatal("nil-writer LWritePayload must be a no-op")
	}
	if rc.NeedsPairs() || rc.NeedsPayload() {
		t.Fatal("blackbox modes need nothing")
	}
}
