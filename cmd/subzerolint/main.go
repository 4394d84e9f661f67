// Command subzerolint runs SubZero's invariant analyzers (internal/lint)
// over Go package patterns:
//
//	subzerolint ./...
//	subzerolint -dir /path/to/module ./internal/...
//
// Exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 on loader or usage errors. Findings are suppressed
// only by an explicit `//lint:ignore subzero/<analyzer> reason` comment
// on or directly above the flagged line.
package main

import (
	"flag"
	"fmt"
	"os"

	"subzero/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("subzerolint", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory of the module to analyze")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()

	if len(rest) > 0 && rest[0] == "help" {
		printHelp(rest[1:])
		return 0
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subzerolint: %v\n", err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		findings, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "subzerolint: %v\n", err)
			return 2
		}
		for _, f := range findings {
			fmt.Printf("%s: %s [%s]\n", f.Pos, f.Message, "subzero/"+f.Analyzer)
			exit = 1
		}
	}
	return exit
}

func printHelp(names []string) {
	analyzers := lint.All()
	if len(names) > 0 {
		analyzers = analyzers[:0]
		for _, n := range names {
			if a := lint.ByName(n); a != nil {
				analyzers = append(analyzers, a)
			} else {
				fmt.Fprintf(os.Stderr, "subzerolint: unknown analyzer %q\n", n)
			}
		}
	}
	fmt.Println("subzerolint enforces SubZero's concurrency, cancellation, and wire-format invariants:")
	fmt.Println()
	for _, a := range analyzers {
		fmt.Printf("  subzero/%s\n      %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Suppress a finding with `//lint:ignore subzero/<analyzer> reason` on or above the line.")
}
