// Command bench is SubZero's benchmark: one program that sets up a
// workload from a seed, verifies its answers against black-box
// re-execution, times it, and prints every metric by name with its unit.
// BENCHMARK.json at the root of the repository declares the workloads, the
// metrics, their direction and their regression bounds; README.md in this
// directory explains the measurement protocol.
//
//	bash bench/run.sh --workload serve-astro --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload serve-astro --seed 1 --seconds 25 --trace 1
//	bash bench/run.sh -aa
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload in two interleaved sets and compare their medians")
	runs := flag.Int("runs", 10, "with -aa: runs per set and workload")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *aa {
		os.Exit(runAA(root, *runs, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	// Every gated number is taken on one P: with two, a closed loop over
	// loopback hands each request across vCPUs and its run-to-run spread
	// grows from ~4 % to 15–28 % on a shared two-vCPU host. The traced
	// pass raises it only around its ungated two-P sections.
	runtime.GOMAXPROCS(1)

	out := filepath.Join(root, "bench", "out")
	scratch, err := makeScratch(out)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var res *result
	if *trace != 0 {
		res, err = traced(ctx, w, *seed, scratch, filepath.Join(out, w.name+".trace.json"))
	} else {
		res, err = untraced(ctx, w, *seed, *seconds, scratch)
	}
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout, w.name); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot locates the repository root from the working directory, which is
// the root itself under run.sh and bench/ under `go run -C bench .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root or from bench/")
}

// makeScratch creates this process's directory for file-backed lineage
// stores, inside the checkout.
func makeScratch(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "scratch-")
}
