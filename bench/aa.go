package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runAA measures the benchmark against itself, the way its judge does: every
// workload is run in two interleaved sets of the same binary, every run with
// another seed, and for each end-to-end metric the two medians must agree
// within the metric's bound and each set's quartiles must lie within the
// bound of each other. It prints a Markdown report (committed as AA.md) and
// returns the exit code: 0 only if every metric of every workload holds.
func runAA(root string, runs int, seconds float64) int {
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# A/A: the benchmark against itself\n\n")
	fmt.Printf("`bench -aa -runs %d -seconds %g` on %s/%s, %d CPUs, %s. Two sets of %d runs of one binary per\n",
		runs, seconds, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), time.Now().UTC().Format("2006-01-02"), runs)
	fmt.Printf("workload, interleaved, every run with another seed (set A: 1–%d, set B: %d–%d).\n", runs, runs+1, 2*runs)
	fmt.Printf("`worse` is how far B's median is on the wrong side of A's; `spread` is (p75 − p25) / median.\n")
	fmt.Printf("A row fails if `worse` or, except for `setup_s`, a spread exceeds the bound; `~` marks a\n")
	fmt.Printf("spread above a third of the bound.\n")

	failures := 0
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set goes first
				seed := set*runs + i + 1
				res, err := runOnce(exe, root, w.Name, seed, seconds)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				if !res.Correct {
					fmt.Printf("\n%s seed %d: %d of %d operations failed\n", w.Name, seed, res.Failed, res.Attempted)
					failures++
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Printf("| metric | unit | median A | median B | worse | spread A | spread B | bound | |\n")
		fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---|\n")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "ok"
			spread := max(sa, sb)
			if m.Name == "setup_s" {
				spread = 0
			}
			switch {
			case worse > m.Bound || spread > m.Bound:
				verdict = "FAIL"
				failures++
			case spread > m.Bound/3:
				verdict = "~"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f %% | %.2f %% | %.2f %% | %.1f %% | %s |\n",
				m.Name, m.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d failures.\n", failures)
		return 1
	}
	fmt.Printf("\nEvery end-to-end metric of every workload agrees within its bound.\n")
	return 0
}

// runOnce runs one untraced pass in a process of its own and parses the
// last line of its output.
func runOnce(exe, root, workload string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
