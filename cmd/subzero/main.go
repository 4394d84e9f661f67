// Command subzero is an interactive demonstration of the lineage system:
// it executes the astronomy benchmark workflow at a chosen scale, prints
// the workflow and strategy assignment, runs the benchmark's lineage
// queries, and reports per-step access paths, timings, and storage.
//
//	subzero [-scale 0.25] [-strategy SubZero] [-dir /tmp/subzero] [-optimize]
//
// With -optimize it additionally profiles the genomics workflow, solves the
// paper's §VII strategy program under the given -budget, and reports the plan.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"subzero/internal/astro"
	"subzero/internal/genomics"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
	"subzero/internal/query"
	"subzero/internal/workflow"

	"subzero/internal/array"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "subzero: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.25, "astronomy image scale (1.0 = 512x2000)")
	strategy := flag.String("strategy", "SubZero", "lineage strategy: BlackBox|BlackBoxOpt|FullOne|FullMany|SubZero")
	dir := flag.String("dir", "", "lineage storage directory, whose *.log files are removed at start (default in-memory)")
	optimize := flag.Bool("optimize", false, "also run the strategy optimizer (genomics workflow)")
	budget := flag.Int64("budget", 20<<20, "optimizer storage budget in bytes")
	flag.Parse()

	// Ctrl-C cancels the workflow or query mid-flight through its context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := demoAstro(ctx, *scale, *strategy, *dir); err != nil {
		return err
	}
	if *optimize {
		return demoOptimizer(ctx, *budget)
	}
	return nil
}

func demoAstro(ctx context.Context, scale float64, strategy, dir string) error {
	cfg := astro.DefaultGenConfig().Scaled(scale)
	fmt.Printf("SubZero demo — astronomy workflow (%dx%d px, strategy %s)\n\n", cfg.Rows, cfg.Cols, strategy)

	plan, err := astro.Plan(strategy)
	if err != nil {
		return err
	}
	spec, err := astro.NewSpec()
	if err != nil {
		return err
	}
	sky, err := astro.Generate(cfg)
	if err != nil {
		return err
	}
	mgr, err := kvstore.NewManager(dir, nil)
	if err != nil {
		return err
	}
	defer mgr.Close()
	stats := lineage.NewCollector()
	exec := workflow.NewExecutor(array.NewVersions(), mgr, stats)

	run, err := exec.Execute(ctx, spec, plan, map[string]*array.Array{
		"img1": sky.Exposure1, "img2": sky.Exposure2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("workflow: %d operators (%d built-ins, %d UDFs)\n",
		len(spec.Nodes()), len(astro.BuiltinIDs()), len(astro.UDFIDs))
	fmt.Printf("executed in %s; lineage overhead %s; lineage storage %s\n\n",
		run.Elapsed.Round(time.Microsecond), run.LineageOverhead.Round(time.Microsecond),
		byteCount(run.LineageBytes()))

	fmt.Println("strategy assignment (UDFs):")
	for _, id := range astro.UDFIDs {
		fmt.Printf("  %-14s %v\n", id, run.Strategies(id))
	}
	fmt.Println()

	queries, err := astro.Queries(run)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(queries))
	for n := range queries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		q := queries[name]
		qe := query.New(run, stats, query.DefaultOptions())
		res, err := qe.Execute(ctx, q)
		if err != nil {
			return fmt.Errorf("query %s: %w", name, err)
		}
		fmt.Printf("%s (%s, %d query cells -> %d result cells, %s)\n",
			name, q.Direction, len(q.Cells), res.Bitmap.Count(), res.Elapsed.Round(time.Microsecond))
		for _, step := range res.Steps {
			fmt.Printf("    %-16s input %d  via %-28s %8d -> %-8d %s\n",
				step.Node, step.InputIdx, step.AccessPath, step.InCells, step.OutCells,
				step.Elapsed.Round(time.Microsecond))
		}
	}
	return nil
}

func demoOptimizer(ctx context.Context, budget int64) error {
	fmt.Printf("\nstrategy optimizer demo — genomics workflow (budget %s)\n\n", byteCount(budget))
	results, err := genomics.OptimizerSweep(ctx, genomics.DefaultGenConfig().Scaled(10), []int64{budget}, "")
	if err != nil {
		return err
	}
	r := results[0]
	fmt.Printf("chosen plan (lineage %s, runtime %s):\n",
		byteCount(r.LineageBytes), r.RunTime.Round(time.Microsecond))
	for _, id := range genomics.UDFIDs {
		fmt.Printf("  %-16s %v\n", id, r.Plan.Strategies(id))
	}
	fmt.Println("\nquery costs under the chosen plan:")
	for _, qn := range genomics.QueryNames {
		fmt.Printf("  %-4s %s\n", qn, r.QueryTimes[qn].Round(time.Microsecond))
	}
	return nil
}

// byteCount renders a byte count with binary units.
func byteCount(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	}
}
