package genomics

import (
	"context"
	"math"
	"testing"
	"time"

	"subzero/internal/array"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

func testConfig() GenConfig { return DefaultGenConfig().Scaled(2) }

func TestGenerator(t *testing.T) {
	cfg := testConfig()
	data, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if data.Train.Shape()[0] != NumRows || data.Train.Shape()[1] != BasePatients*cfg.Scale {
		t.Fatalf("train shape=%v", data.Train.Shape())
	}
	// Labels are 0, 1, or missing; some of each must exist.
	var n0, n1, nm int
	for p := 0; p < data.Train.Shape()[1]; p++ {
		switch data.Train.Get2(LabelRow, p) {
		case 0:
			n0++
		case 1:
			n1++
		case MissingValue:
			nm++
		default:
			t.Fatalf("unexpected label %f", data.Train.Get2(LabelRow, p))
		}
	}
	if n0 == 0 || n1 == 0 || nm == 0 {
		t.Fatalf("label mix 0=%d 1=%d missing=%d", n0, n1, nm)
	}
	// Test matrix is unlabeled.
	for p := 0; p < data.Test.Shape()[1]; p++ {
		if data.Test.Get2(LabelRow, p) != MissingValue {
			t.Fatal("test matrix has labels")
		}
	}
	// Determinism.
	again, _ := Generate(cfg)
	for i, v := range data.Train.Data() {
		if again.Train.Data()[i] != v {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSpecStructure(t *testing.T) {
	spec, err := NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(BuiltinIDs()) != 10 || len(UDFIDs) != 4 {
		t.Fatalf("builtins=%d udfs=%d", len(BuiltinIDs()), len(UDFIDs))
	}
	for _, id := range BuiltinIDs() {
		if !workflow.Supports(spec.Node(id).Op, lineage.Map) {
			t.Fatalf("built-in %s must be a mapping operator", id)
		}
	}
	for _, id := range UDFIDs {
		op := spec.Node(id).Op
		if !workflow.Supports(op, lineage.Pay) || !workflow.Supports(op, lineage.Full) {
			t.Fatalf("UDF %s must support Pay and Full", id)
		}
		if _, ok := op.(workflow.PayloadMapper); !ok {
			t.Fatalf("UDF %s lacks map_p", id)
		}
	}
}

func runGenomics(t *testing.T, planName string) (*workflow.Executor, *workflow.Run) {
	t.Helper()
	plan, err := Plan(planName)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := kvstore.NewManager("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	exec := workflow.NewExecutor(array.NewVersions(), mgr, lineage.NewCollector())
	run, err := exec.Execute(context.Background(), spec, plan, map[string]*array.Array{
		"train": data.Train, "test": data.Test,
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec, run
}

func TestPipelineSemantics(t *testing.T) {
	_, run := runGenomics(t, "BlackBox")
	// The model must weight the signal features (0-9) far above the
	// neutral ones (10-39).
	model, err := run.Output(NodeModel)
	if err != nil {
		t.Fatal(err)
	}
	var signal, neutral float64
	for f := 0; f < 10; f++ {
		signal += math.Abs(model.Get2(0, f))
	}
	for f := 10; f < 40; f++ {
		neutral += math.Abs(model.Get2(0, f))
	}
	signal /= 10
	neutral /= 30
	if signal < 3*neutral {
		t.Fatalf("model cannot separate signal (%f) from neutral (%f)", signal, neutral)
	}
	// Predictions: relapse-ish patients score higher on average.
	pred, err := run.Output(NodePredict)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range pred.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no predictions made")
	}
}

// TestStrategyQueryEquivalence: all eight Table-II configurations must
// answer the workload identically, statically and dynamically.
func TestStrategyQueryEquivalence(t *testing.T) {
	truth := map[string][]uint64{}
	for _, name := range StrategyNames {
		exec, run := runGenomics(t, name)
		queries, err := Queries(run)
		if err != nil {
			t.Fatal(err)
		}
		for _, dynamic := range []bool{false, true} {
			qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: dynamic})
			for qname, q := range queries {
				res, err := qe.Execute(context.Background(), q)
				if err != nil {
					t.Fatalf("%s/%s dynamic=%v: %v", name, qname, dynamic, err)
				}
				cells := res.Cells()
				if len(cells) == 0 {
					t.Fatalf("%s/%s returned no cells", name, qname)
				}
				if want, ok := truth[qname]; ok {
					if len(want) != len(cells) {
						t.Fatalf("%s/%s dynamic=%v: %d cells, want %d", name, qname, dynamic, len(cells), len(want))
					}
					for i := range want {
						if want[i] != cells[i] {
							t.Fatalf("%s/%s: cell mismatch at %d", name, qname, i)
						}
					}
				} else {
					truth[qname] = cells
				}
			}
		}
	}
}

func TestRunStrategyMeasurements(t *testing.T) {
	res, err := RunStrategy(context.Background(), "PayBoth", testConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.LineageBytes <= 0 {
		t.Fatal("no lineage stored")
	}
	for _, qn := range QueryNames {
		if res.Static[qn] <= 0 || res.Dynamic[qn] <= 0 {
			t.Fatalf("missing timings for %s: %+v", qn, res)
		}
		if res.QueryCells[qn] == 0 {
			t.Fatalf("query %s empty", qn)
		}
	}
	if _, err := Plan("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// Forward-optimized-only lineage must degrade backward queries (the
// Figure 6(b) pathology) while the dynamic optimizer keeps them near
// black-box (Figure 6(c)).
func TestDynamicOptimizerBoundsMismatchedAccess(t *testing.T) {
	res, err := RunStrategy(context.Background(), "FullForw", testConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := RunStrategy(context.Background(), "BlackBox", testConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's bound: the query-time optimizer keeps every query
	// within a small factor of pure black-box execution, no matter how
	// mismatched the materialized lineage is (Figure 6(c)). The factor
	// here is generous because test-scale timings are noisy.
	for _, qn := range []string{"BQ0", "BQ1"} {
		limit := bb.Dynamic[qn]*5 + 100*time.Millisecond
		if res.Dynamic[qn] > limit {
			t.Fatalf("%s: dynamic=%v exceeds black-box-based bound %v (blackbox=%v)",
				qn, res.Dynamic[qn], limit, bb.Dynamic[qn])
		}
	}
}

func TestOptimizerSweep(t *testing.T) {
	budgets := []int64{1 << 10, 1 << 22, 0}
	results, err := OptimizerSweep(context.Background(), testConfig(), budgets, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(budgets) {
		t.Fatalf("results=%d", len(results))
	}
	// Tiny budget: essentially no lineage. Large budgets: lineage within
	// budget; unbounded: at least as much as the 4MB budget.
	if results[0].LineageBytes > 1<<10 {
		t.Fatalf("tiny budget stored %d bytes", results[0].LineageBytes)
	}
	if results[1].LineageBytes > 1<<22 {
		t.Fatalf("plan exceeded budget: %d > %d", results[1].LineageBytes, int64(1<<22))
	}
	for _, r := range results {
		for _, qn := range QueryNames {
			if r.QueryTimes[qn] <= 0 {
				t.Fatalf("%s missing query time for %s", r.Name, qn)
			}
		}
	}
}
