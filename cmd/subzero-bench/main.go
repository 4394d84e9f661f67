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
//	subzero-bench all     everything above
//
// Absolute numbers differ from the 2013 Python/BerkeleyDB prototype; the
// harness reports the same rows/series so shapes and ratios can be
// compared (README "Performance" and "Commands"). Capture overhead,
// latency histograms and tracing overhead are measured by the bench/
// module, in the one metric schema of BENCHMARK.json.
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

	"subzero/internal/astro"
	"subzero/internal/benchfmt"
	"subzero/internal/genomics"
	"subzero/internal/microbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "subzero-bench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	astroScale float64
	genScale   int
	microSize  int
	dir        string
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
		return fmt.Errorf("usage: subzero-bench [flags] fig5a|fig5b|fig6a|fig6b|fig6c|fig7|fig8|fig9|all")
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
	}
	if cmd == "all" {
		for _, name := range []string{"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9"} {
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
