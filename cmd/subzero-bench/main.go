// Command subzero-bench regenerates every table and figure of the SubZero
// paper's evaluation (§VIII) on this implementation:
//
//	subzero-bench fig5a   astronomy disk & runtime overhead per strategy
//	subzero-bench fig5b   astronomy query costs (BQ0-BQ4, FQ0, FQ0-Slow)
//	subzero-bench fig6a   genomics disk & runtime overhead per strategy
//	subzero-bench fig6b   genomics query costs, query-time optimizer OFF
//	subzero-bench fig6c   genomics query costs, query-time optimizer ON
//	subzero-bench fig7    genomics optimizer sweep over storage budgets
//	subzero-bench fig8    microbenchmark overhead vs fanin/fanout
//	subzero-bench fig9    microbenchmark backward query cost
//	subzero-bench capture capture overhead with lineage on/off, serial vs
//	                      sharded asynchronous ingest (-ingest-shards)
//	subzero-bench obs     observability snapshot: ingest stall/flush and
//	                      query/kvstore latency histograms under load
//	subzero-bench trace   end-to-end tracing overhead on the backward
//	                      lookup, span trees off vs on, plus retention
//	                      counters
//	subzero-bench all     everything above
//
// Absolute numbers differ from the 2013 Python/BerkeleyDB prototype; the
// harness reports the same rows/series so shapes and ratios can be
// compared (see EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"subzero"
	"subzero/internal/astro"
	"subzero/internal/benchfmt"
	"subzero/internal/genomics"
	"subzero/internal/lineage"
	"subzero/internal/microbench"
	"subzero/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "subzero-bench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	astroScale   float64
	genScale     int
	microSize    int
	dir          string
	ingestShards int
	ingestDepth  int
}

// jsonReport collects every rendered table when -json is set, for the
// machine-readable BENCH.json artifact tracked across changes.
var jsonReport *benchfmt.JSONReport

// render prints a table and records it in the JSON report when enabled.
func render(t *benchfmt.Table) {
	t.Render(os.Stdout)
	jsonReport.Add(t)
}

func run(args []string) error {
	fs := flag.NewFlagSet("subzero-bench", flag.ContinueOnError)
	opts := options{}
	quick := fs.Bool("quick", false, "run at reduced scale for a fast smoke pass")
	fs.Float64Var(&opts.astroScale, "astro-scale", 1.0, "astronomy image scale (1.0 = paper's 512x2000)")
	fs.IntVar(&opts.genScale, "gen-scale", 100, "genomics patient replication (100 = paper)")
	fs.IntVar(&opts.microSize, "micro-size", 1000, "microbenchmark array side (1000 = paper)")
	fs.StringVar(&opts.dir, "dir", "", "lineage storage directory (default: in-memory stores)")
	fs.IntVar(&opts.ingestShards, "ingest-shards", 4, "shard workers for the capture table's sharded rows (capture figure)")
	fs.IntVar(&opts.ingestDepth, "ingest-depth", 0, "per-shard ingest queue depth in batches (default 8)")
	jsonPath := fs.String("json", "", "also write the figure tables as machine-readable JSON to this path (e.g. BENCH.json)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonPath != "" {
		jsonReport = &benchfmt.JSONReport{}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "subzero-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "subzero-bench: memprofile: %v\n", err)
			}
		}()
	}
	if *quick {
		opts.astroScale = 0.2
		opts.genScale = 5
		opts.microSize = 300
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: subzero-bench [flags] fig5a|fig5b|fig6a|fig6b|fig6c|fig7|fig8|fig9|capture|obs|trace|all")
	}
	// Ctrl-C cancels the in-flight workflow or query via the v2 context-
	// aware API.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cmd := fs.Arg(0)
	runners := map[string]func(context.Context, options) error{
		"fig5a": fig5a, "fig5b": fig5b,
		"fig6a": fig6a, "fig6b": fig6b, "fig6c": fig6c,
		"fig7": fig7, "fig8": fig8, "fig9": fig9,
		"capture": capture, "obs": obsFigure, "trace": traceFigure,
	}
	if cmd == "all" {
		for _, name := range []string{"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9", "capture", "obs", "trace"} {
			if err := runners[name](ctx, opts); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return writeJSON(*jsonPath)
	}
	fn, ok := runners[cmd]
	if !ok {
		return fmt.Errorf("unknown figure %q", cmd)
	}
	if err := fn(ctx, opts); err != nil {
		return err
	}
	return writeJSON(*jsonPath)
}

// writeJSON flushes the collected tables when -json is set.
func writeJSON(path string) error {
	if path == "" || jsonReport == nil {
		return nil
	}
	if err := jsonReport.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %d figure tables to %s\n", jsonReport.Len(), path)
	return nil
}

// astroResults caches one full astronomy pass per process so fig5a and
// fig5b share it under "all".
var astroCache []*astro.StrategyResult

func astroResults(ctx context.Context, opts options) ([]*astro.StrategyResult, error) {
	if astroCache != nil {
		return astroCache, nil
	}
	cfg := astro.DefaultGenConfig().Scaled(opts.astroScale)
	fmt.Printf("astronomy benchmark: %dx%d px, %d stars, %d cosmic rays/exposure\n\n",
		cfg.Rows, cfg.Cols, cfg.Stars, cfg.CosmicRays)
	for _, name := range astro.StrategyNames {
		start := time.Now()
		res, err := astro.RunStrategy(ctx, name, cfg, opts.dir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  ran %-12s in %s\n", name, benchfmt.Duration(time.Since(start)))
		astroCache = append(astroCache, res)
	}
	fmt.Println()
	return astroCache, nil
}

func fig5a(ctx context.Context, opts options) error {
	results, err := astroResults(ctx, opts)
	if err != nil {
		return err
	}
	t := benchfmt.NewTable("Figure 5(a): astronomy disk and runtime overhead",
		"strategy", "disk", "disk/inputs", "runtime", "runtime/blackbox")
	base := results[0]
	for _, r := range results {
		t.AddRow(r.Name,
			benchfmt.Bytes(r.LineageBytes+r.BaselineBytes),
			benchfmt.Ratio(float64(r.LineageBytes+r.BaselineBytes), float64(r.BaselineBytes)),
			r.RunTime,
			benchfmt.Ratio(float64(r.RunTime), float64(base.RunTime)))
	}
	render(t)
	return nil
}

func fig5b(ctx context.Context, opts options) error {
	results, err := astroResults(ctx, opts)
	if err != nil {
		return err
	}
	headers := append([]string{"strategy"}, astro.QueryNames...)
	t := benchfmt.NewTable("Figure 5(b): astronomy query costs", headers...)
	for _, r := range results {
		row := []any{r.Name}
		for _, qn := range astro.QueryNames {
			row = append(row, r.QueryTimes[qn])
		}
		t.AddRow(row...)
	}
	render(t)
	return nil
}

var genCache []*genomics.StrategyResult

func genResults(ctx context.Context, opts options) ([]*genomics.StrategyResult, error) {
	if genCache != nil {
		return genCache, nil
	}
	cfg := genomics.DefaultGenConfig().Scaled(opts.genScale)
	fmt.Printf("genomics benchmark: %dx%d training matrix (scale %dx)\n\n",
		genomics.NumRows, genomics.BasePatients*cfg.Scale, cfg.Scale)
	for _, name := range genomics.StrategyNames {
		start := time.Now()
		res, err := genomics.RunStrategy(ctx, name, cfg, opts.dir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  ran %-9s in %s\n", name, benchfmt.Duration(time.Since(start)))
		genCache = append(genCache, res)
	}
	fmt.Println()
	return genCache, nil
}

func fig6a(ctx context.Context, opts options) error {
	results, err := genResults(ctx, opts)
	if err != nil {
		return err
	}
	t := benchfmt.NewTable("Figure 6(a): genomics disk and runtime overhead",
		"strategy", "disk", "disk/inputs", "runtime", "runtime/blackbox")
	base := results[0]
	for _, r := range results {
		t.AddRow(r.Name,
			benchfmt.Bytes(r.LineageBytes),
			benchfmt.Ratio(float64(r.LineageBytes), float64(r.BaselineBytes)),
			r.RunTime,
			benchfmt.Ratio(float64(r.RunTime), float64(base.RunTime)))
	}
	render(t)
	return nil
}

func genQueryTable(title string, results []*genomics.StrategyResult, pick func(*genomics.StrategyResult) map[string]time.Duration) {
	headers := append([]string{"strategy"}, genomics.QueryNames...)
	t := benchfmt.NewTable(title, headers...)
	for _, r := range results {
		row := []any{r.Name}
		for _, qn := range genomics.QueryNames {
			row = append(row, pick(r)[qn])
		}
		t.AddRow(row...)
	}
	render(t)
}

func fig6b(ctx context.Context, opts options) error {
	results, err := genResults(ctx, opts)
	if err != nil {
		return err
	}
	genQueryTable("Figure 6(b): genomics query costs (static: query-time optimizer OFF)",
		results, func(r *genomics.StrategyResult) map[string]time.Duration { return r.Static })
	return nil
}

func fig6c(ctx context.Context, opts options) error {
	results, err := genResults(ctx, opts)
	if err != nil {
		return err
	}
	genQueryTable("Figure 6(c): genomics query costs (dynamic: query-time optimizer ON)",
		results, func(r *genomics.StrategyResult) map[string]time.Duration { return r.Dynamic })
	return nil
}

func fig7(ctx context.Context, opts options) error {
	cfg := genomics.DefaultGenConfig().Scaled(opts.genScale)
	budgets := []int64{1 << 20, 10 << 20, 20 << 20, 50 << 20, 100 << 20}
	fmt.Printf("genomics optimizer sweep (budgets 1..100 MB, scale %dx)\n\n", cfg.Scale)
	results, err := genomics.OptimizerSweep(ctx, cfg, budgets, opts.dir)
	if err != nil {
		return err
	}
	headers := append([]string{"config", "budget", "disk", "runtime"}, genomics.QueryNames...)
	t := benchfmt.NewTable("Figure 7: optimizer-chosen plans vs storage budget", headers...)
	for _, r := range results {
		row := []any{r.Name, benchfmt.Bytes(r.BudgetBytes), benchfmt.Bytes(r.LineageBytes), r.RunTime}
		for _, qn := range genomics.QueryNames {
			row = append(row, r.QueryTimes[qn])
		}
		t.AddRow(row...)
	}
	render(t)
	for _, r := range results {
		fmt.Printf("  %s plan:\n", r.Name)
		for _, id := range genomics.UDFIDs {
			fmt.Printf("    %-16s %v\n", id, r.Plan.Strategies(id))
		}
	}
	fmt.Println()
	return nil
}

// capture reproduces the BENCH_5 capture-overhead table: workflow runtime
// with lineage off (BlackBox) and on, comparing the serial write path
// against the sharded asynchronous ingest pipeline on the genomics and
// astronomy workloads. "op overhead" is the lineage time the operator
// threads pay — under sharding it collapses to the enqueue + drain cost,
// while the encode work moves to the shard workers ("encode" column).
func capture(ctx context.Context, opts options) error {
	shards := opts.ingestShards
	if shards < 2 {
		shards = 2
	}
	configs := []struct {
		label  string
		ingest lineage.IngestConfig
	}{
		{"serial", lineage.IngestConfig{}},
		{fmt.Sprintf("sharded x%d", shards), lineage.IngestConfig{Shards: shards, Depth: opts.ingestDepth}},
	}
	t := benchfmt.NewTable("Capture overhead: serial vs sharded asynchronous ingest",
		"workload", "strategy", "ingest", "pairs", "runtime", "op write", "drain", "capture total", "encode")
	fmt.Printf("capture-overhead sweep (shards=%d)\n\n", shards)

	type captureRow struct {
		workload, strategy, ingestLabel   string
		pairs                             int64
		elapsed, opWrite, drain, overhead time.Duration
		encode                            time.Duration
	}
	var rows []captureRow
	genCfg := genomics.DefaultGenConfig().Scaled(opts.genScale)
	for _, strat := range []string{"BlackBox", "FullOne", "FullMany"} {
		for _, cfg := range configs {
			if strat == "BlackBox" && cfg.ingest.Enabled() {
				continue // no lineage to capture; one baseline row suffices
			}
			res, err := genomics.CaptureRun(ctx, strat, genCfg, cfg.ingest, opts.dir)
			if err != nil {
				return fmt.Errorf("genomics %s/%s: %w", strat, cfg.label, err)
			}
			rows = append(rows, captureRow{"genomics", strat, cfg.label, res.Pairs, res.Elapsed, res.OpWrite, res.Drain, res.Overhead, res.Encode})
		}
	}
	astroCfg := astro.DefaultGenConfig().Scaled(opts.astroScale)
	for _, strat := range []string{"BlackBox", "FullOne", "FullMany"} {
		for _, cfg := range configs {
			if strat == "BlackBox" && cfg.ingest.Enabled() {
				continue
			}
			res, err := astro.CaptureRun(ctx, strat, astroCfg, cfg.ingest, opts.dir)
			if err != nil {
				return fmt.Errorf("astronomy %s/%s: %w", strat, cfg.label, err)
			}
			rows = append(rows, captureRow{"astronomy", strat, cfg.label, res.Pairs, res.Elapsed, res.OpWrite, res.Drain, res.Overhead, res.Encode})
		}
	}
	for _, r := range rows {
		t.AddRow(r.workload, r.strategy, r.ingestLabel, r.pairs, r.elapsed, r.opWrite, r.drain, r.overhead, r.encode)
	}
	render(t)
	return nil
}

// obsFigure snapshots the observability layer under load: the genomics
// workflow executes on a full System with sharded ingest (so enqueue-stall
// and drain-barrier histograms fill), the paper's query workload runs a
// few rounds, and the resulting obs histograms — the same ones
// subzero-serve exposes at /v1/metrics — land in the JSON report so
// latency-distribution regressions are tracked alongside the figure
// tables.
func obsFigure(ctx context.Context, opts options) error {
	shards := opts.ingestShards
	if shards < 2 {
		shards = 2
	}
	sys, err := subzero.NewSystem(subzero.WithIngest(shards, opts.ingestDepth))
	if err != nil {
		return err
	}
	defer sys.Close()
	cfg := genomics.DefaultGenConfig().Scaled(opts.genScale)
	fmt.Printf("observability snapshot: genomics scale %dx, ingest shards=%d\n\n", cfg.Scale, shards)
	spec, err := genomics.NewSpec()
	if err != nil {
		return err
	}
	data, err := genomics.Generate(cfg)
	if err != nil {
		return err
	}
	plan, err := genomics.Plan("PayBoth")
	if err != nil {
		return err
	}
	run, err := sys.Execute(ctx, spec, plan, map[string]*subzero.Array{"train": data.Train, "test": data.Test})
	if err != nil {
		return err
	}
	qmap, err := genomics.Queries(run)
	if err != nil {
		return err
	}
	var queries []subzero.Query
	for _, qn := range genomics.QueryNames {
		queries = append(queries, qmap[qn])
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		br, err := sys.QueryBatch(ctx, run, queries, subzero.DefaultQueryOptions())
		if err != nil {
			return err
		}
		if br.Report.Failed != 0 {
			return fmt.Errorf("obs: %d workload queries failed", br.Report.Failed)
		}
	}
	set := sys.Observability()
	t := benchfmt.NewTable("Observability: ingest + query + kvstore latency histograms",
		"metric", "count", "p50", "p95", "p99", "mean", "total")
	addHist := func(name string, h *obs.Histogram) {
		s := h.Snapshot()
		t.AddRow(name, s.Count,
			time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.95)),
			time.Duration(s.Quantile(0.99)), time.Duration(s.Mean()), time.Duration(s.Sum))
	}
	addHist("ingest enqueue stall", set.Ingest.EnqueueStall)
	addHist("ingest flush barrier", set.Ingest.Flush)
	addHist("query backward", set.Query.Latency[0])
	addHist("query forward", set.Query.Latency[1])
	addHist("kvstore get-batch", set.KV.GetBatchLatency)
	addHist("kvstore put-batch", set.KV.PutBatchLatency)
	render(t)
	return nil
}

var microFanins = []int{1, 25, 50, 75, 100}
var microFanouts = []int{1, 100}

func microSweep(ctx context.Context, opts options) (map[string]map[[2]int]*microbench.Result, error) {
	out := map[string]map[[2]int]*microbench.Result{}
	for _, strat := range microbench.StrategyNames {
		out[strat] = map[[2]int]*microbench.Result{}
		for _, fanout := range microFanouts {
			for _, fanin := range microFanins {
				cfg := microbench.DefaultConfig()
				cfg.Rows, cfg.Cols = opts.microSize, opts.microSize
				cfg.Fanin, cfg.Fanout = fanin, fanout
				res, err := microbench.Run(ctx, cfg, strat, opts.dir)
				if err != nil {
					return nil, fmt.Errorf("%s fanin=%d fanout=%d: %w", strat, fanin, fanout, err)
				}
				out[strat][[2]int{fanin, fanout}] = res
			}
		}
	}
	return out, nil
}

var microCache map[string]map[[2]int]*microbench.Result

func microResults(ctx context.Context, opts options) (map[string]map[[2]int]*microbench.Result, error) {
	if microCache != nil {
		return microCache, nil
	}
	fmt.Printf("microbenchmark: %dx%d array, 10%% coverage, fanins %v, fanouts %v\n\n",
		opts.microSize, opts.microSize, microFanins, microFanouts)
	var err error
	microCache, err = microSweep(ctx, opts)
	return microCache, err
}

func fig8(ctx context.Context, opts options) error {
	results, err := microResults(ctx, opts)
	if err != nil {
		return err
	}
	for _, fanout := range microFanouts {
		t := benchfmt.NewTable(
			fmt.Sprintf("Figure 8: microbench overhead (fanout=%d)", fanout),
			"strategy", "fanin", "disk", "runtime")
		for _, strat := range microbench.StrategyNames {
			for _, fanin := range microFanins {
				r := results[strat][[2]int{fanin, fanout}]
				t.AddRow(strat, fanin, benchfmt.Bytes(r.LineageBytes), r.RunTime)
			}
		}
		render(t)
	}
	return nil
}

func fig9(ctx context.Context, opts options) error {
	results, err := microResults(ctx, opts)
	if err != nil {
		return err
	}
	for _, fanout := range microFanouts {
		t := benchfmt.NewTable(
			fmt.Sprintf("Figure 9: microbench backward queries, 1000 cells (fanout=%d)", fanout),
			"strategy", "fanin", "backward", "forward")
		for _, strat := range microbench.StrategyNames {
			for _, fanin := range microFanins {
				r := results[strat][[2]int{fanin, fanout}]
				t.AddRow(strat, fanin, r.BackwardQuery, r.ForwardQuery)
			}
		}
		render(t)
	}
	return nil
}
