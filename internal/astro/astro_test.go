package astro

import (
	"context"
	"testing"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"
)

// testConfig is a small sky that keeps tests fast: ~64x250 pixels.
func testConfig() GenConfig {
	cfg := DefaultGenConfig().Scaled(0.125)
	cfg.Stars = 12
	cfg.CosmicRays = 8
	return cfg
}

func TestGenerator(t *testing.T) {
	cfg := testConfig()
	sky, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sky.Exposure1.Shape().Equal(grid.Shape{cfg.Rows, cfg.Cols}) {
		t.Fatalf("shape=%v", sky.Exposure1.Shape())
	}
	if len(sky.StarCenters) != cfg.Stars || len(sky.CR1) != cfg.CosmicRays {
		t.Fatalf("stars=%d crs=%d", len(sky.StarCenters), len(sky.CR1))
	}
	// Cosmic rays must vastly exceed star brightness.
	cr := sky.Exposure1.GetAt(sky.CR1[0])
	if cr < cfg.CRPeak*0.7 {
		t.Fatalf("cosmic ray brightness %f too low", cr)
	}
	// Exposures share stars but differ in cosmic rays.
	if sky.Exposure2.GetAt(sky.CR1[0]) > cfg.CRPeak*0.5 {
		t.Skip("cosmic rays collided between exposures (acceptable, rare)")
	}
	// Determinism: same seed, same pixels.
	sky2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sky.Exposure1.Data() {
		if sky2.Exposure1.Data()[i] != v {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSpecStructure(t *testing.T) {
	spec, err := NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(BuiltinIDs()) != 22 || len(UDFIDs) != 4 {
		t.Fatalf("builtin=%d udf=%d", len(BuiltinIDs()), len(UDFIDs))
	}
	for _, id := range append(BuiltinIDs(), UDFIDs...) {
		if spec.Node(id) == nil {
			t.Fatalf("node %s missing", id)
		}
	}
	// Built-ins must all be mapping operators; UDFs must not support Map.
	for _, id := range BuiltinIDs() {
		if !workflow.Supports(spec.Node(id).Op, lineage.Map) {
			t.Fatalf("built-in %s does not support Map", id)
		}
	}
	for _, id := range UDFIDs {
		if workflow.Supports(spec.Node(id).Op, lineage.Map) {
			t.Fatalf("UDF %s claims Map support", id)
		}
		if !workflow.Supports(spec.Node(id).Op, lineage.Full) {
			t.Fatalf("UDF %s must support Full for tracing", id)
		}
	}
}

func executeAstro(t *testing.T, planName string) (*workflow.Executor, *workflow.Run) {
	t.Helper()
	plan, err := Plan(planName)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	sky, err := Generate(testConfig())
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
		"img1": sky.Exposure1, "img2": sky.Exposure2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec, run
}

func TestPipelineDetections(t *testing.T) {
	_, run := executeAstro(t, "BlackBox")
	// Cosmic rays detected in both masks.
	for _, node := range []string{NodeCRD1, NodeCRD2} {
		out, err := run.Output(node)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range out.Data() {
			if v > 0 {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s found no cosmic rays", node)
		}
		if n > int(out.Size()/10) {
			t.Fatalf("%s flagged %d pixels — threshold far too low", node, n)
		}
	}
	// Stars detected and labeled.
	stars, err := largestStar(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(stars) < 2 {
		t.Fatalf("largest star has %d pixels", len(stars))
	}
	// Cosmic rays removed: cleaned composite must not contain CR-scale
	// values.
	cleaned, err := run.Output(NodeCRRemove)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cleaned.Data() {
		if v > crThreshold*2 {
			t.Fatalf("cell %d still cosmic-ray bright after cleaning: %f", i, v)
		}
	}
}

func TestAllStrategiesExecute(t *testing.T) {
	for _, name := range StrategyNames {
		t.Run(name, func(t *testing.T) {
			_, run := executeAstro(t, name)
			if name == "BlackBox" || name == "BlackBoxOpt" {
				if run.LineageBytes() != 0 {
					t.Fatalf("%s stored %d lineage bytes", name, run.LineageBytes())
				}
			} else if run.LineageBytes() == 0 {
				t.Fatalf("%s stored no lineage", name)
			}
		})
	}
	if _, err := Plan("bogus"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestStrategyQueryEquivalence: every Table-II configuration must answer
// every benchmark query identically (Figure 5(b) compares their speed, so
// their answers must agree).
func TestStrategyQueryEquivalence(t *testing.T) {
	truth := map[string][]uint64{}
	for _, name := range StrategyNames {
		exec, run := executeAstro(t, name)
		queries, err := Queries(run)
		if err != nil {
			t.Fatal(err)
		}
		qe := query.New(run, exec.Stats(), query.Options{EntireArray: true, Dynamic: false})
		for qname, q := range queries {
			res, err := qe.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, qname, err)
			}
			cells := res.Cells()
			if len(cells) == 0 {
				t.Fatalf("%s/%s returned no cells", name, qname)
			}
			if want, ok := truth[qname]; ok {
				if len(want) != len(cells) {
					t.Fatalf("%s/%s: %d cells, first strategy had %d", name, qname, len(cells), len(want))
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

// The entire-array optimization must not change FQ0's answer.
func TestFQ0SlowMatchesFast(t *testing.T) {
	exec, run := executeAstro(t, "SubZero")
	queries, err := Queries(run)
	if err != nil {
		t.Fatal(err)
	}
	fq := queries["FQ0"]
	fast, err := query.New(run, exec.Stats(), query.Options{EntireArray: true}).Execute(context.Background(), fq)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := query.New(run, exec.Stats(), query.Options{EntireArray: false}).Execute(context.Background(), fq)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fast.Cells(), slow.Cells()
	if len(a) != len(b) {
		t.Fatalf("fast=%d cells slow=%d cells", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FQ0 fast/slow mismatch")
		}
	}
}

// RunStrategy end-to-end smoke test with file-backed stores.
func TestRunStrategyFileBacked(t *testing.T) {
	res, err := RunStrategy(context.Background(), "SubZero", testConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.LineageBytes <= 0 || res.RunTime <= 0 {
		t.Fatalf("result=%+v", res)
	}
	for _, qn := range QueryNames {
		if _, ok := res.QueryTimes[qn]; !ok {
			t.Fatalf("query %s missing from results", qn)
		}
		if res.QueryCells[qn] == 0 {
			t.Fatalf("query %s returned no cells", qn)
		}
	}
}

// The SubZero configuration must store far less than Full lineage — the
// headline of Figure 5(a).
func TestSubZeroStorageAdvantage(t *testing.T) {
	subzero, err := RunStrategy(context.Background(), "SubZero", testConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	fullone, err := RunStrategy(context.Background(), "FullOne", testConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	if subzero.LineageBytes*5 > fullone.LineageBytes {
		t.Fatalf("SubZero %d bytes vs FullOne %d bytes: expected >5x advantage",
			subzero.LineageBytes, fullone.LineageBytes)
	}
}
