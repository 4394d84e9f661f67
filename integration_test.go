package subzero_test

import (
	"context"
	"fmt"
	"testing"

	"subzero"
	"subzero/internal/astro"
	"subzero/internal/genomics"
	"subzero/internal/microbench"
)

// TestEndToEndAstroThroughFacade drives the full astronomy benchmark
// workflow through the public System API and cross-checks two strategy
// configurations against each other.
func TestEndToEndAstroThroughFacade(t *testing.T) {
	cfg := astro.DefaultGenConfig().Scaled(0.1)
	answers := map[string]map[string]int{}
	for _, strategy := range []string{"BlackBoxOpt", "SubZero"} {
		sys, err := subzero.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := astro.Plan(strategy)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := astro.NewSpec()
		if err != nil {
			t.Fatal(err)
		}
		sky, err := astro.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sys.Execute(context.Background(), spec, plan, map[string]*subzero.Array{
			"img1": sky.Exposure1, "img2": sky.Exposure2,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries, err := astro.Queries(run)
		if err != nil {
			t.Fatal(err)
		}
		answers[strategy] = map[string]int{}
		for name, q := range queries {
			res, err := sys.Query(context.Background(), run, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", strategy, name, err)
			}
			answers[strategy][name] = len(res.Cells())
		}
		sys.Close()
	}
	for name, n := range answers["BlackBoxOpt"] {
		if answers["SubZero"][name] != n {
			t.Fatalf("query %s: SubZero=%d cells, BlackBoxOpt=%d", name, answers["SubZero"][name], n)
		}
	}
}

// TestEndToEndGenomicsOptimizerLoop exercises the paper's full loop
// through the facade: profile, optimize, re-execute under the chosen
// plan, and verify the answers match the profiling run.
func TestEndToEndGenomicsOptimizerLoop(t *testing.T) {
	sys, err := subzero.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	spec, err := genomics.NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	data, err := genomics.Generate(genomics.DefaultGenConfig().Scaled(2))
	if err != nil {
		t.Fatal(err)
	}
	profile := subzero.Plan{}
	for _, id := range genomics.BuiltinIDs() {
		profile[id] = []subzero.Strategy{subzero.StratMap}
	}
	for _, id := range genomics.UDFIDs {
		profile[id] = []subzero.Strategy{subzero.StratFullOne, subzero.StratPayOne}
	}
	sources := map[string]*subzero.Array{"train": data.Train, "test": data.Test}
	profRun, err := sys.Execute(context.Background(), spec, profile, sources)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := genomics.Queries(profRun)
	if err != nil {
		t.Fatal(err)
	}
	var workload []subzero.Query
	truth := map[string]int{}
	for name, q := range queries {
		workload = append(workload, q)
		res, err := sys.Query(context.Background(), profRun, q)
		if err != nil {
			t.Fatal(err)
		}
		truth[name] = len(res.Cells())
	}

	rep, err := sys.Optimize(context.Background(), profRun, workload, subzero.Constraints{MaxDiskBytes: subzero.MB(64)})
	if err != nil {
		t.Fatal(err)
	}
	optRun, err := sys.Execute(context.Background(), spec, rep.Plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	optQueries, err := genomics.Queries(optRun)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range optQueries {
		res, err := sys.Query(context.Background(), optRun, q)
		if err != nil {
			t.Fatalf("optimized %s: %v", name, err)
		}
		if len(res.Cells()) != truth[name] {
			t.Fatalf("optimized plan changed %s: %d cells, want %d", name, len(res.Cells()), truth[name])
		}
	}
}

// TestMicrobenchCrossoverShape pins Figure 8's qualitative shape: at high
// fanout, FullMany stores fewer bytes than FullOne (which duplicates one
// hash entry per output cell); at fanout 1 FullOne is competitive.
func TestMicrobenchCrossoverShape(t *testing.T) {
	run := func(fanin, fanout int, strat string) *microbench.Result {
		t.Helper()
		cfg := microbench.DefaultConfig()
		cfg.Rows, cfg.Cols = 200, 200
		cfg.Fanin, cfg.Fanout = fanin, fanout
		res, err := microbench.Run(context.Background(), cfg, strat, "")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	highFanout := [2]*microbench.Result{run(10, 64, "<-FullOne"), run(10, 64, "<-FullMany")}
	if highFanout[1].LineageBytes >= highFanout[0].LineageBytes {
		t.Fatalf("fanout 64: FullMany (%d B) should beat FullOne (%d B)",
			highFanout[1].LineageBytes, highFanout[0].LineageBytes)
	}
	lowFanout := [2]*microbench.Result{run(10, 1, "<-FullOne"), run(10, 1, "<-FullMany")}
	if lowFanout[0].LineageBytes >= 2*lowFanout[1].LineageBytes {
		t.Fatalf("fanout 1: FullOne (%d B) should be competitive with FullMany (%d B)",
			lowFanout[0].LineageBytes, lowFanout[1].LineageBytes)
	}
}

// TestBenchmarkHarnessSmoke runs the helpers behind the BenchmarkFig…
// benchmarks (one strategy of each workload, and the optimizer sweep) end
// to end at smoke scale, on file-backed stores where the benchmarks use
// in-memory ones.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := astro.RunStrategy(context.Background(), "SubZero", astro.DefaultGenConfig().Scaled(0.1), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := genomics.RunStrategy(context.Background(), "PayOne", genomics.DefaultGenConfig().Scaled(2), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	cfg := microbench.DefaultConfig()
	cfg.Rows, cfg.Cols = 150, 150
	for _, strat := range microbench.StrategyNames {
		if _, err := microbench.Run(context.Background(), cfg, strat, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
	budgets := []int64{1 << 20, 0}
	if _, err := genomics.OptimizerSweep(context.Background(), genomics.DefaultGenConfig().Scaled(2), budgets, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestQueryResultsStableAcrossRuns guards determinism: two executions of
// the same workflow and queries give identical results (required for the
// benchmarks to be reproducible).
func TestQueryResultsStableAcrossRuns(t *testing.T) {
	counts := make([]string, 2)
	for i := range counts {
		sys, err := subzero.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		plan, _ := astro.Plan("SubZero")
		spec, _ := astro.NewSpec()
		sky, _ := astro.Generate(astro.DefaultGenConfig().Scaled(0.1))
		run, err := sys.Execute(context.Background(), spec, plan, map[string]*subzero.Array{
			"img1": sky.Exposure1, "img2": sky.Exposure2,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries, _ := astro.Queries(run)
		sig := ""
		for _, name := range astro.QueryNames {
			if q, ok := queries[name]; ok {
				res, err := sys.Query(context.Background(), run, q)
				if err != nil {
					t.Fatal(err)
				}
				sig += fmt.Sprintf("%s=%d;", name, res.Bitmap.Count())
			}
		}
		counts[i] = sig
		sys.Close()
	}
	if counts[0] != counts[1] {
		t.Fatalf("non-deterministic results:\n%s\n%s", counts[0], counts[1])
	}
}
