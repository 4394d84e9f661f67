// Benchmarks regenerating every figure of the paper's evaluation (§VIII),
// one BenchmarkFig… per figure (README "Commands"):
//
//	go test -run '^$' -bench 'Fig5a' .
//
// Each benchmark is the measurement loop behind one figure; custom metrics
// report the non-time quantities (lineage bytes, disk over inputs) and
// Figure 7 logs each budget's chosen plan. go test's -cpuprofile and
// -memprofile profile a figure.
//
// Scales are reduced so the full suite completes in minutes; pass
// -bench-paper-scale to run every figure at the paper's data sizes.
package subzero_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"subzero"
	"subzero/internal/astro"
	"subzero/internal/genomics"
	"subzero/internal/microbench"
)

var paperScale = flag.Bool("bench-paper-scale", false, "run figure benches at the paper's data sizes")

func astroCfg() astro.GenConfig {
	if *paperScale {
		return astro.DefaultGenConfig()
	}
	return astro.DefaultGenConfig().Scaled(0.2)
}

func genCfg() genomics.GenConfig {
	scale := 10
	if *paperScale {
		scale = 100
	}
	return genomics.DefaultGenConfig().Scaled(scale)
}

func microSide() int {
	if *paperScale {
		return 1000
	}
	return 300
}

// prepareAstro executes the astronomy workflow under one strategy and
// returns the system, run, and benchmark queries.
func prepareAstro(b *testing.B, strategy string) (*subzero.System, *subzero.Run, map[string]subzero.Query) {
	b.Helper()
	sys, err := subzero.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	plan, err := astro.Plan(strategy)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := astro.NewSpec()
	if err != nil {
		b.Fatal(err)
	}
	sky, err := astro.Generate(astroCfg())
	if err != nil {
		b.Fatal(err)
	}
	run, err := sys.Execute(context.Background(), spec, plan, map[string]*subzero.Array{
		"img1": sky.Exposure1, "img2": sky.Exposure2,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := astro.Queries(run)
	if err != nil {
		b.Fatal(err)
	}
	return sys, run, queries
}

// BenchmarkFig5aAstroOverhead measures workflow execution per strategy:
// the runtime bars of Figure 5(a), with lineage bytes and the disk
// (inputs plus lineage) over the inputs as custom metrics (the disk bars).
func BenchmarkFig5aAstroOverhead(b *testing.B) {
	for _, name := range astro.StrategyNames {
		b.Run(name, func(b *testing.B) {
			var res *astro.StrategyResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = astro.RunStrategy(context.Background(), name, astroCfg(), ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.LineageBytes), "lineage-bytes")
			b.ReportMetric(float64(res.LineageBytes+res.BaselineBytes)/float64(res.BaselineBytes), "disk/inputs")
		})
	}
}

// BenchmarkFig5bAstroQueries measures each benchmark query per strategy:
// Figure 5(b). FQ0Slow is FQ0 with the entire-array optimization off.
func BenchmarkFig5bAstroQueries(b *testing.B) {
	for _, name := range astro.StrategyNames {
		sys, run, queries := prepareAstro(b, name)
		static := subzero.QueryOptions{EntireArray: true}
		for _, qn := range astro.QueryNames {
			q, opts := queries[qn], static
			if qn == "FQ0Slow" {
				q = queries["FQ0"]
				opts = subzero.QueryOptions{}
			}
			b.Run(fmt.Sprintf("%s/%s", name, qn), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sys.QueryWith(context.Background(), run, q, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// prepareGenomics executes the genomics workflow under one strategy.
func prepareGenomics(b *testing.B, strategy string) (*subzero.System, *subzero.Run, map[string]subzero.Query) {
	b.Helper()
	sys, err := subzero.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	plan, err := genomics.Plan(strategy)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := genomics.NewSpec()
	if err != nil {
		b.Fatal(err)
	}
	data, err := genomics.Generate(genCfg())
	if err != nil {
		b.Fatal(err)
	}
	run, err := sys.Execute(context.Background(), spec, plan, map[string]*subzero.Array{
		"train": data.Train, "test": data.Test,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := genomics.Queries(run)
	if err != nil {
		b.Fatal(err)
	}
	return sys, run, queries
}

// BenchmarkFig6aGenomicsOverhead: Figure 6(a), with the lineage bytes
// over the inputs as the disk metric.
func BenchmarkFig6aGenomicsOverhead(b *testing.B) {
	for _, name := range genomics.StrategyNames {
		b.Run(name, func(b *testing.B) {
			var res *genomics.StrategyResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = genomics.RunStrategy(context.Background(), name, genCfg(), ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.LineageBytes), "lineage-bytes")
			b.ReportMetric(float64(res.LineageBytes)/float64(res.BaselineBytes), "disk/inputs")
		})
	}
}

// genomicsQueryBench is the Figure 6(b)/(c) measurement: per-strategy
// per-query execution with the query-time optimizer off or on.
func genomicsQueryBench(b *testing.B, dynamic bool) {
	opts := subzero.QueryOptions{EntireArray: true, Dynamic: dynamic}
	for _, name := range genomics.StrategyNames {
		sys, run, queries := prepareGenomics(b, name)
		for _, qn := range genomics.QueryNames {
			q := queries[qn]
			b.Run(fmt.Sprintf("%s/%s", name, qn), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sys.QueryWith(context.Background(), run, q, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6bGenomicsStatic: Figure 6(b), query-time optimizer off.
func BenchmarkFig6bGenomicsStatic(b *testing.B) { genomicsQueryBench(b, false) }

// BenchmarkFig6cGenomicsDynamic: Figure 6(c), query-time optimizer on.
func BenchmarkFig6cGenomicsDynamic(b *testing.B) { genomicsQueryBench(b, true) }

// BenchmarkFig7OptimizerSweep: Figure 7 — per storage budget, the
// optimizer's plan search plus the workload under the chosen plan, whose
// per-UDF strategies are logged.
func BenchmarkFig7OptimizerSweep(b *testing.B) {
	budgets := []int64{1 << 20, 20 << 20, 100 << 20}
	for _, budget := range budgets {
		b.Run(fmt.Sprintf("budget-%dMB", budget>>20), func(b *testing.B) {
			var results []genomics.SweepResult
			for i := 0; i < b.N; i++ {
				var err error
				if results, err = genomics.OptimizerSweep(context.Background(), genCfg(), []int64{budget}, ""); err != nil {
					b.Fatal(err)
				}
			}
			r := results[0]
			b.ReportMetric(float64(r.LineageBytes), "lineage-bytes")
			for _, id := range genomics.UDFIDs {
				b.Logf("%-16s %v", id, r.Plan.Strategies(id))
			}
		})
	}
}

// BenchmarkFig8MicroOverhead: Figure 8 — write overhead per strategy
// across the fanin/fanout grid.
func BenchmarkFig8MicroOverhead(b *testing.B) {
	for _, strat := range microbench.StrategyNames {
		for _, fanout := range []int{1, 100} {
			for _, fanin := range []int{1, 50, 100} {
				b.Run(fmt.Sprintf("%s/fanout-%d/fanin-%d", strat, fanout, fanin), func(b *testing.B) {
					cfg := microbench.DefaultConfig()
					cfg.Rows, cfg.Cols = microSide(), microSide()
					cfg.Fanin, cfg.Fanout = fanin, fanout
					var lineageBytes int64
					for i := 0; i < b.N; i++ {
						res, err := microbench.Run(context.Background(), cfg, strat, "")
						if err != nil {
							b.Fatal(err)
						}
						lineageBytes = res.LineageBytes
					}
					b.ReportMetric(float64(lineageBytes), "lineage-bytes")
				})
			}
		}
	}
}

// BenchmarkFig9MicroQueries: Figure 9 — 1000-cell backward queries over
// the backward-optimized strategies, measured on a prepared run.
func BenchmarkFig9MicroQueries(b *testing.B) {
	for _, strat := range []string{"<-PayMany", "<-PayOne", "<-FullMany", "<-FullOne"} {
		for _, fanin := range []int{1, 100} {
			b.Run(fmt.Sprintf("%s/fanin-%d", strat, fanin), func(b *testing.B) {
				cfg := microbench.DefaultConfig()
				cfg.Rows, cfg.Cols = microSide(), microSide()
				cfg.Fanin, cfg.Fanout = fanin, 1
				sys, run, cells := prepareMicro(b, cfg, strat)
				q := subzero.BackwardQuery(cells, subzero.Step{Node: microbench.NodeID})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Query(context.Background(), run, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func prepareMicro(b *testing.B, cfg microbench.Config, strategy string) (*subzero.System, *subzero.Run, []uint64) {
	b.Helper()
	sys, err := subzero.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	var plan subzero.Plan
	switch strategy {
	case "<-PayMany":
		plan = subzero.Plan{microbench.NodeID: {subzero.StratPayMany}}
	case "<-PayOne":
		plan = subzero.Plan{microbench.NodeID: {subzero.StratPayOne}}
	case "<-FullMany":
		plan = subzero.Plan{microbench.NodeID: {subzero.StratFullMany}}
	case "<-FullOne":
		plan = subzero.Plan{microbench.NodeID: {subzero.StratFullOne}}
	default:
		b.Fatalf("unknown strategy %s", strategy)
	}
	spec := subzero.NewSpec("micro")
	spec.Add(microbench.NodeID, microbench.NewSyntheticOp(cfg), subzero.FromExternal("input"))
	input, err := subzero.NewArray("input", subzero.Shape{cfg.Rows, cfg.Cols})
	if err != nil {
		b.Fatal(err)
	}
	run, err := sys.Execute(context.Background(), spec, plan, map[string]*subzero.Array{"input": input})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cells := make([]uint64, microbench.QueryCellCount)
	size := int64(cfg.Rows) * int64(cfg.Cols)
	for i := range cells {
		cells[i] = uint64(rng.Int63n(size))
	}
	return sys, run, cells
}
