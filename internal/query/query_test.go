package query_test

import (
	"context"
	"fmt"
	"testing"

	"subzero/internal/array"
	"subzero/internal/fault"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/ops"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// maskUDF is a CRD-like test operator: output cell = 1 if input > 0.5
// ("bright"), depending on its 3x3 neighborhood; otherwise 0, depending on
// the corresponding input cell only. It supports Full, Pay, and Comp
// lineage like the paper's cosmic-ray detector (§V).
type maskUDF struct {
	workflow.Meta
}

func newMaskUDF() *maskUDF {
	return &maskUDF{Meta: workflow.Meta{
		OpName: "mask",
		NIn:    1,
		Modes:  []lineage.Mode{lineage.Full, lineage.Pay, lineage.Comp},
	}}
}

func (m *maskUDF) OutShape(in []grid.Shape) (grid.Shape, error) { return workflow.SameShapeOut(in) }

func (m *maskUDF) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	in := ins[0]
	out, err := array.New(m.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	sp := in.Space()
	coord := make(grid.Coord, sp.Rank())
	var neigh []uint64
	outBuf := make([]uint64, 1)
	for idx := uint64(0); idx < sp.Size(); idx++ {
		bright := in.Get(idx) > 0.5
		if bright {
			out.Set(idx, 1)
		}
		outBuf[0] = idx
		if rc.NeedsPairs() {
			if bright {
				sp.UnravelInto(idx, coord)
				neigh = grid.Neighborhood(sp, coord, 1, neigh[:0])
				if err := rc.LWrite(outBuf, neigh); err != nil {
					return nil, err
				}
			} else if err := rc.LWrite(outBuf, outBuf); err != nil {
				return nil, err
			}
		}
		if rc.Modes().Has(lineage.Pay) {
			radius := byte(0)
			if bright {
				radius = 1
			}
			if err := rc.LWritePayload(outBuf, []byte{radius}); err != nil {
				return nil, err
			}
		}
		if rc.Modes().Has(lineage.Comp) && bright {
			if err := rc.LWritePayload(outBuf, []byte{1}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MapP: the payload byte is the neighborhood radius.
func (m *maskUDF) MapP(mc *workflow.MapCtx, out uint64, payload []byte, _ int, dst []uint64) []uint64 {
	return grid.Neighborhood(mc.InSpaces[0], mc.OutCoord(out), int(payload[0]), dst)
}

// MapB is the composite default: identity.
func (m *maskUDF) MapB(_ *workflow.MapCtx, out uint64, _ int, dst []uint64) []uint64 {
	return append(dst, out)
}

// MapF is the composite default: identity.
func (m *maskUDF) MapF(_ *workflow.MapCtx, in uint64, _ int, dst []uint64) []uint64 {
	return append(dst, in)
}

// buildRun executes the test workflow (scale -> mask -> conv -> agg) under
// the given plan.
func buildRun(t *testing.T, plan workflow.Plan) (*workflow.Executor, *workflow.Run) {
	t.Helper()
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())

	spec := workflow.NewSpec("qtest")
	spec.Add("scale", ops.NewUnary("scale", func(x float64) float64 { return x * 2 }), workflow.FromExternal("src"))
	spec.Add("mask", newMaskUDF(), workflow.FromNode("scale"))
	conv, err := ops.NewConvolve2D("conv", [][]float64{{0, 1, 0}, {1, 1, 1}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	spec.Add("conv", conv, workflow.FromNode("mask"))
	spec.Add("agg", ops.NewMeanAll(), workflow.FromNode("conv"))

	src := array.MustNew("src", grid.Shape{10, 10})
	// Deterministic sparse "bright" cells.
	for i := range src.Data() {
		if i%17 == 0 || i == 55 {
			src.Data()[i] = 1.0
		} else {
			src.Data()[i] = 0.1
		}
	}
	run, err := exec.Execute(context.Background(), spec, plan, map[string]*array.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	return exec, run
}

func mapPlan(udf []lineage.Strategy) workflow.Plan {
	return workflow.Plan{
		"scale": {lineage.StratMap},
		"conv":  {lineage.StratMap},
		"agg":   {lineage.StratMap},
		"mask":  udf,
	}
}

var testQueries = []query.Query{
	{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: "conv"}, {Node: "mask"}, {Node: "scale"}}},
	{Direction: query.Backward, Cells: []uint64{34, 35, 36}, Path: []query.Step{{Node: "conv"}, {Node: "mask"}, {Node: "scale"}}},
	{Direction: query.Backward, Cells: []uint64{55}, Path: []query.Step{{Node: "mask"}, {Node: "scale"}}},
	{Direction: query.Forward, Cells: []uint64{0, 1}, Path: []query.Step{{Node: "scale"}, {Node: "mask"}, {Node: "conv"}}},
	{Direction: query.Forward, Cells: []uint64{55}, Path: []query.Step{{Node: "mask"}, {Node: "conv"}, {Node: "agg"}}},
	{Direction: query.Forward, Cells: []uint64{17}, Path: []query.Step{{Node: "scale"}, {Node: "mask"}}},
}

func resultCells(t *testing.T, e *query.Executor, q query.Query) []uint64 {
	t.Helper()
	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells()
}

func sameCells(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStrategyEquivalence is the central metamorphic test: every lineage
// strategy must produce exactly the same query answers as black-box
// tracing, for backward and forward queries, with the optimizer on or off.
func TestStrategyEquivalence(t *testing.T) {
	// Ground truth: pure black-box run.
	_, bbRun := buildRun(t, nil)
	bbExec := query.New(bbRun, nil, query.Options{EntireArray: false, Dynamic: false})
	truth := make([][]uint64, len(testQueries))
	for i, q := range testQueries {
		truth[i] = resultCells(t, bbExec, q)
		if len(truth[i]) == 0 {
			t.Fatalf("query %d: ground truth empty", i)
		}
	}

	plans := map[string]workflow.Plan{
		"blackboxOpt": mapPlan(nil),
		"fullOne":     mapPlan([]lineage.Strategy{lineage.StratFullOne}),
		"fullMany":    mapPlan([]lineage.Strategy{lineage.StratFullMany}),
		"fullOneFwd":  mapPlan([]lineage.Strategy{lineage.StratFullOneFwd}),
		"fullManyFwd": mapPlan([]lineage.Strategy{lineage.StratFullManyFwd}),
		"fullBoth":    mapPlan([]lineage.Strategy{lineage.StratFullOne, lineage.StratFullOneFwd}),
		"payOne":      mapPlan([]lineage.Strategy{lineage.StratPayOne}),
		"payMany":     mapPlan([]lineage.Strategy{lineage.StratPayMany}),
		"compOne":     mapPlan([]lineage.Strategy{lineage.StratCompOne}),
		"compMany":    mapPlan([]lineage.Strategy{lineage.StratCompMany}),
	}
	for name, plan := range plans {
		for _, dynamic := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dynamic=%v", name, dynamic), func(t *testing.T) {
				exec, run := buildRun(t, plan)
				qe := query.New(run, exec.Stats(), query.Options{EntireArray: false, Dynamic: dynamic})
				for i, q := range testQueries {
					got := resultCells(t, qe, q)
					if !sameCells(got, truth[i]) {
						t.Fatalf("query %d (%s): got %d cells %v, want %d cells %v",
							i, q.Direction, len(got), got, len(truth[i]), truth[i])
					}
				}
			})
		}
	}
}

// TestEntireArrayOptimization verifies the all-to-all shortcut returns the
// same result as tracing through the aggregate, and that the path label
// reflects the optimization.
func TestEntireArrayOptimization(t *testing.T) {
	exec, run := buildRun(t, mapPlan(nil))
	q := query.Query{
		Direction: query.Forward,
		Cells:     []uint64{12},
		Path:      []query.Step{{Node: "scale"}, {Node: "mask"}, {Node: "conv"}, {Node: "agg"}},
	}
	fast := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
	slow := query.New(run, exec.Stats(), query.Options{EntireArray: false, Dynamic: false})

	fres, err := fast.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := slow.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(fres.Cells(), sres.Cells()) {
		t.Fatal("entire-array optimization changed the result")
	}
	last := fres.Steps[len(fres.Steps)-1]
	if last.AccessPath != query.PathEntireArray {
		t.Fatalf("last step path=%q, want entire-array", last.AccessPath)
	}
	slowLast := sres.Steps[len(sres.Steps)-1]
	if slowLast.AccessPath == query.PathEntireArray {
		t.Fatal("optimization used while disabled")
	}
	// Backward through the aggregate: the result must be the whole conv
	// array either way.
	bq := query.Query{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: "agg"}}}
	bres, err := fast.Execute(context.Background(), bq)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Bitmap.Count() != 100 {
		t.Fatalf("backward through all-to-all: %d cells, want 100", bres.Bitmap.Count())
	}
}

// blackboxUDF supports no lineage API: queries through it must
// conservatively return the entire array.
type blackboxUDF struct {
	workflow.Meta
}

func (o *blackboxUDF) OutShape(in []grid.Shape) (grid.Shape, error) { return workflow.SameShapeOut(in) }
func (o *blackboxUDF) Run(_ *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	return ins[0].Clone().WithName("opaque"), nil
}

// buildOpaqueRun executes a one-node workflow whose UDF supports no
// lineage API at all.
func buildOpaqueRun(t *testing.T) (*workflow.Executor, *workflow.Run) {
	t.Helper()
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	spec := workflow.NewSpec("opaque")
	spec.Add("udf", &blackboxUDF{Meta: workflow.Meta{OpName: "opaque", NIn: 1}}, workflow.FromExternal("src"))
	src := array.MustNew("src", grid.Shape{4, 4})
	run, err := exec.Execute(context.Background(), spec, nil, map[string]*array.Array{"src": src})
	if err != nil {
		t.Fatal(err)
	}
	return exec, run
}

func TestConservativeAllToAllForOpaqueUDF(t *testing.T) {
	exec, run := buildOpaqueRun(t)
	qe := query.New(run, exec.Stats(), query.DefaultOptions())
	res, err := qe.Execute(context.Background(), query.Query{Direction: query.Backward, Cells: []uint64{3}, Path: []query.Step{{Node: "udf"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Count() != 16 {
		t.Fatalf("conservative result has %d cells, want all 16", res.Bitmap.Count())
	}
	if res.Steps[0].AccessPath != query.PathConservative {
		t.Fatalf("path=%q", res.Steps[0].AccessPath)
	}
}

func TestQueryValidation(t *testing.T) {
	exec, run := buildRun(t, nil)
	qe := query.New(run, exec.Stats(), query.DefaultOptions())
	cases := []query.Query{
		{}, // empty path
		{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: "ghost"}}},
		{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: "conv", InputIdx: 3}}},
		{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: "scale"}, {Node: "conv"}}}, // wrong edge
		{Direction: query.Forward, Cells: []uint64{0}, Path: []query.Step{{Node: "conv"}, {Node: "scale"}}},  // wrong edge
		{Direction: query.Backward, Cells: []uint64{1 << 40}, Path: []query.Step{{Node: "conv"}}},            // cell out of range
	}
	for i, q := range cases {
		if _, err := qe.Execute(context.Background(), q); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestQueryStatsRecorded(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratFullOne}))
	qe := query.New(run, exec.Stats(), query.DefaultOptions())
	if _, err := qe.Execute(context.Background(), testQueries[0]); err != nil {
		t.Fatal(err)
	}
	st := exec.Stats().Get("conv")
	if st.QuerySteps == 0 || st.QueryTime <= 0 {
		t.Fatalf("query stats not recorded: %+v", st)
	}
}

func TestEmptyIntermediateStops(t *testing.T) {
	// Forward from an input cell that mask maps nowhere... all mask cells
	// map somewhere, so instead use a query whose starting cells are empty.
	exec, run := buildRun(t, nil)
	qe := query.New(run, exec.Stats(), query.DefaultOptions())
	res, err := qe.Execute(context.Background(), query.Query{
		Direction: query.Forward,
		Cells:     nil,
		Path:      []query.Step{{Node: "scale"}, {Node: "mask"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Count() != 0 {
		t.Fatal("empty query produced cells")
	}
	if len(res.Steps) != 1 {
		t.Fatalf("expected early stop after first step, got %d steps", len(res.Steps))
	}
}

func TestStepReports(t *testing.T) {
	exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratPayOne}))
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
	res, err := qe.Execute(context.Background(), testQueries[2]) // backward mask -> scale
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps=%d", len(res.Steps))
	}
	if res.Steps[0].AccessPath != query.PathStore+"(<-Pay/One)" {
		t.Fatalf("step 0 path=%q", res.Steps[0].AccessPath)
	}
	if res.Steps[1].AccessPath != query.PathMap {
		t.Fatalf("step 1 path=%q", res.Steps[1].AccessPath)
	}
	if res.Steps[0].InCells != 1 || res.Steps[0].OutCells == 0 {
		t.Fatalf("step 0 counts=%+v", res.Steps[0])
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}

	// Every path kind's label, byte for byte: bench/'s step classifier,
	// the wire goldens and the slow-query log all parse these strings.
	withPlan := func(udf ...lineage.Strategy) func(*testing.T) (*workflow.Executor, *workflow.Run) {
		return func(t *testing.T) (*workflow.Executor, *workflow.Run) { return buildRun(t, mapPlan(udf)) }
	}
	static := query.Options{EntireArray: true}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*workflow.Executor, *workflow.Run)
		opts  query.Options
		node  string
		fault bool // fail the store's first record decode: forced fallback
		want  string
	}{
		{"map", withPlan(), static, "scale", false, "map"},
		{"composite", withPlan(lineage.StratCompOne), static, "mask", false, "composite(<-Comp/One)"},
		{"store", withPlan(lineage.StratFullMany), static, "mask", false, "store(<-Full/Many)"},
		{"store-scan", withPlan(lineage.StratFullOneFwd), static, "mask", false, "store-scan(->Full/One)"},
		{"reexec", withPlan(), static, "mask", false, "reexec"},
		{"entire-array", withPlan(), static, "agg", false, "entire-array"},
		{"store+reexec", withPlan(lineage.StratFullOne), static, "mask", true, "store(<-Full/One)+reexec"},
		{"reexec-conservative", buildOpaqueRun, query.DefaultOptions(), "udf", false, "reexec-conservative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec, run := tc.build(t)
			if tc.fault {
				defer fault.Reset()
				if err := fault.Arm("lineage/lookup/decode", fault.Action{Kind: fault.KindError, Count: 1}); err != nil {
					t.Fatal(err)
				}
			}
			res, err := query.New(run, exec.Stats(), tc.opts).Execute(context.Background(),
				query.Query{Direction: query.Backward, Cells: []uint64{0}, Path: []query.Step{{Node: tc.node}}})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Steps[0]; got.AccessPath != tc.want || got.FellBack != tc.fault {
				t.Fatalf("access path %q (fell back %v), want %q (fell back %v)", got.AccessPath, got.FellBack, tc.want, tc.fault)
			}
		})
	}
}

// TestMismatchedOrientationStillCorrect pins the Figure 6(b) pathology:
// forward-optimized-only lineage must still answer backward queries
// correctly (slowly, via scans).
func TestMismatchedOrientationStillCorrect(t *testing.T) {
	_, bbRun := buildRun(t, nil)
	bbExec := query.New(bbRun, nil, query.Options{EntireArray: false, Dynamic: false})
	q := testQueries[1]
	want := resultCells(t, bbExec, q)

	exec, run := buildRun(t, mapPlan([]lineage.Strategy{lineage.StratFullOneFwd}))
	qe := query.New(run, exec.Stats(), query.Options{EntireArray: false, Dynamic: false})
	res, err := qe.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(res.Cells(), want) {
		t.Fatal("mismatched-orientation scan returned wrong result")
	}
	// The mask step must have used the scan path.
	found := false
	for _, s := range res.Steps {
		if s.Node == "mask" && s.AccessPath == query.PathStoreScan+"(->Full/One)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scan path not used: %+v", res.Steps)
	}
}
