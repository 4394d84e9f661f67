// Package lint holds the static checks that mechanically enforce the
// invariants SubZero's concurrent service depends on: context propagation
// into every blocking path (ctxflow), sync/atomic only through typed
// atomics (atomicfield), pool values returned on every path (poolreturn),
// recover() binding the panic value (recovercheck), and explicitly
// json-tagged, wire-safe Wire* DTOs (wiretag).
//
// The checks run as a test: `go test ./internal/lint/` loads the module
// and fails on any finding (TestRealTreeIsClean), and checks each fixture
// package under testdata/src against the findings its comments expect.
// The package uses the standard library alone (go/ast, go/types and the
// go command): Load type-checks packages through `go list -export` and the
// compiler's export data (see load.go), and Check walks each file once,
// handing every node to every check.
//
// Findings are suppressed with an explicit, justified directive on the
// flagged line or the line above it:
//
//	//lint:ignore subzero/<check> <reason>
//
// A directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one invariant violation, as printed to the user.
type Finding struct {
	Check   string // the check's name, or "ignore" for a malformed directive
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: subzero/%s", f.Pos, f.Message, f.Check)
}

// checks maps each check's name, as findings and //lint:ignore directives
// spell it, to the function Check hands every node to, together with the
// node's ancestors (innermost last).
var checks = map[string]func(p *pass, n ast.Node, stack []ast.Node){
	"atomicfield":  atomicField,
	"ctxflow":      ctxFlow,
	"poolreturn":   poolReturn,
	"recovercheck": recoverCheck,
	"wiretag":      wireTag,
}

// A pass is one Check run over one package. The checks read the package
// through it and report against the check currently running.
type pass struct {
	*Package
	check string
	found []Finding
}

func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.found = append(p.found, Finding{
		Check:   p.check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Check runs every check over one loaded package and returns the findings
// sorted by position. Findings in _test.go files are dropped: the
// invariants guard production code, and tests legitimately use
// context.Background, bare pools, and ad-hoc encodings. So are findings a
// //lint:ignore directive suppresses.
func Check(pkg *Package) []Finding {
	p := &pass{Package: pkg}
	var directives []ignoreDirective
	for _, f := range pkg.Files {
		directives = append(directives, p.parseDirectives(f)...)
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			for name, check := range checks {
				p.check = name
				check(p, n, stack)
			}
		})
	}

	var out []Finding
	for _, f := range p.found {
		if !strings.HasSuffix(f.Pos.Filename, "_test.go") && !suppressed(directives, f) {
			out = append(out, f)
		}
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
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	check string         // bare check name ("ctxflow"), or "*"
	end   token.Position // where the comment ends
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:ignore"

// parseDirectives extracts the //lint:ignore directives of a file,
// reporting malformed ones (no check name, or no reason) as findings.
func (p *pass) parseDirectives(file *ast.File) []ignoreDirective {
	p.check = "ignore"
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				p.reportf(c.Pos(), "malformed //lint:ignore directive: missing check name")
				continue
			}
			name := strings.TrimPrefix(fields[0], "subzero/")
			if len(fields) == 1 {
				p.reportf(c.Pos(), "//lint:ignore subzero/%s needs a reason", name)
				continue
			}
			out = append(out, ignoreDirective{check: name, end: p.Fset.Position(c.End())})
		}
	}
	return out
}

// suppressed reports whether a directive in the finding's file, on its
// line or the line directly above it, names the finding's check.
func suppressed(directives []ignoreDirective, f Finding) bool {
	for _, d := range directives {
		if d.check != f.Check && d.check != "*" {
			continue
		}
		if d.end.Filename == f.Pos.Filename && (d.end.Line == f.Pos.Line || d.end.Line == f.Pos.Line-1) {
			return true
		}
	}
	return false
}

// inspectStack walks the tree under root, handing fn every node with its
// ancestors from root down (innermost last, the node itself excluded).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
