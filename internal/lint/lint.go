// Package lint implements subzerolint, the static-analysis suite that
// mechanically enforces the invariants SubZero's concurrent service
// depends on: context propagation into every blocking path (ctxflow),
// sync/atomic only through typed atomics (atomicfield), pool values
// returned on every path (poolreturn), recover() binding the panic
// value (recovercheck), and explicitly json-tagged, wire-safe Wire* DTOs
// (wiretag).
//
// The suite is intentionally built on the standard library alone
// (go/ast, go/types, and the go command): the repository vendors no
// external modules, so the Analyzer/Pass/Diagnostic surface here mirrors
// golang.org/x/tools/go/analysis closely enough that the analyzers could
// be ported to it mechanically, while the driver loads packages through
// `go list -export` and the compiler's export data (see load.go).
//
// Findings are suppressed with an explicit, justified directive on the
// flagged line or the line above it:
//
//	//lint:ignore subzero/<analyzer> <reason>
//
// A directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Diagnostics are reported
// under the name "subzero/<Name>".
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives; short, lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `subzerolint help` prints.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
}

// String returns the diagnostic category, "subzero/<name>".
func (a *Analyzer) String() string { return "subzero/" + a.Name }

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one raw finding, positioned by token.Pos; the runner
// resolves it against the file set and the suppression directives.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Finding is a resolved diagnostic as printed to the user.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: subzero/%s", f.Pos, f.Message, f.Analyzer)
}

// IgnoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // bare analyzer name ("ctxflow"), or "*"
	reason   string
	line     int
	pos      token.Pos
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:ignore "

// parseDirectives extracts the //lint:ignore directives of a file,
// reporting malformed ones (no analyzer, or no reason) as findings.
func parseDirectives(fset *token.FileSet, file *ast.File, report func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, strings.TrimSpace(directivePrefix)) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, strings.TrimSpace(directivePrefix))
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report(Diagnostic{Analyzer: "ignore", Pos: c.Pos(),
					Message: "malformed //lint:ignore directive: missing analyzer name"})
				continue
			}
			name := strings.TrimPrefix(fields[0], "subzero/")
			reason := strings.TrimSpace(strings.TrimPrefix(rest, " "+fields[0]))
			reason = strings.TrimSpace(strings.TrimPrefix(reason, fields[0]))
			if reason == "" {
				report(Diagnostic{Analyzer: "ignore", Pos: c.Pos(),
					Message: fmt.Sprintf("//lint:ignore subzero/%s needs a reason", name)})
				continue
			}
			out = append(out, ignoreDirective{
				analyzer: name,
				reason:   reason,
				line:     fset.Position(c.End()).Line,
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// RunAnalyzers executes the analyzers over one loaded package and
// resolves suppressions. Diagnostics positioned in _test.go files are
// dropped: the invariants guard production code, and tests legitimately
// use context.Background, bare pools, and ad-hoc encodings.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var raw []Diagnostic
	var directives []ignoreDirective
	for _, f := range pkg.Files {
		directives = append(directives, parseDirectives(pkg.Fset, f, func(d Diagnostic) {
			raw = append(raw, d)
		})...)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}

	var out []Finding
	for _, d := range raw {
		pos := pkg.Fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if suppressed(directives, pos, d.Analyzer) {
			continue
		}
		out = append(out, Finding{Analyzer: d.Analyzer, Pos: pos, Message: d.Message})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// suppressed reports whether a directive on the diagnostic's line, or the
// line directly above it, names the diagnostic's analyzer.
func suppressed(directives []ignoreDirective, pos token.Position, analyzer string) bool {
	for _, d := range directives {
		if d.analyzer != analyzer && d.analyzer != "*" {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// InspectStack walks each file keeping the ancestor stack: fn sees every
// node with its path from the file root (innermost ancestor last, node
// itself excluded). Returning false skips the node's children.
func InspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}
