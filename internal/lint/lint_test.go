package lint

import (
	"go/ast"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures runs every check over each fixture package under
// testdata/src — violations, sanctioned idioms and a //lint:ignore case —
// and diffs the findings against the expectations the fixture spells out
// in want comments:
//
//	ctx := context.Background() // want `context\.Background\(\) in library code`
//
// Every finding must be matched by a `// want "regexp"` (or backquoted)
// comment on its line, and every want comment must match a finding.
func TestFixtures(t *testing.T) {
	fixtures := []string{"atomicfield", "ctxflow", "ctxflow_main", "poolreturn", "recovercheck", "wiretag"}
	var patterns []string
	for _, name := range fixtures {
		patterns = append(patterns, "./testdata/src/"+name)
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	byName := make(map[string]*Package)
	for _, pkg := range pkgs {
		byName[pkg.PkgPath[strings.LastIndexByte(pkg.PkgPath, '/')+1:]] = pkg
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			pkg := byName[name]
			if pkg == nil {
				t.Fatalf("fixture %s did not load", name)
			}
			wants := collectWants(t, pkg)
			for _, f := range Check(pkg) {
				if !matchWant(wants, f) {
					t.Errorf("%s: unexpected finding: %s [subzero/%s]", f.Pos, f.Message, f.Check)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.rx)
				}
			}
		})
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// matchWant consumes the first unmatched want on the finding's line whose
// regexp matches the message.
func matchWant(wants []*want, f Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses the `// want` comments of every fixture file.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				out = append(out, parseWant(t, pkg, c)...)
			}
		}
	}
	return out
}

// parseWant extracts zero or more expectations from one comment. The
// comment position anchors the expected finding's line.
func parseWant(t *testing.T, pkg *Package, c *ast.Comment) []*want {
	t.Helper()
	text := strings.TrimPrefix(c.Text, "//")
	idx := strings.Index(text, "want ")
	if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
		return nil
	}
	pos := pkg.Fset.Position(c.Pos())
	rest := strings.TrimSpace(text[idx+len("want "):])
	var out []*want
	for rest != "" {
		quote := rest[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: malformed want comment: expectations must be quoted: %s", pos, c.Text)
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			t.Fatalf("%s: malformed want comment: unterminated %c-quote: %s", pos, quote, c.Text)
		}
		pattern := rest[1 : 1+end]
		rx, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, rx: rx})
		rest = strings.TrimSpace(rest[1+end+1:])
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment carries no expectations: %s", pos, c.Text)
	}
	return out
}

// TestIgnoreDirectiveContract pins the suppression rules: a directive
// without a reason is itself a finding and suppresses nothing, and a
// directive naming a different check leaves the finding standing.
func TestIgnoreDirectiveContract(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ignorecheck")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	var reasonless, ctxflow int
	for _, f := range Check(pkgs[0]) {
		switch {
		case f.Check == "ignore" && strings.Contains(f.Message, "needs a reason"):
			reasonless++
		case f.Check == "ctxflow":
			ctxflow++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if reasonless != 1 {
		t.Errorf("reasonless-directive findings = %d, want 1", reasonless)
	}
	// Both Background calls must survive: one under a reasonless
	// directive, one under a directive for the wrong check.
	if ctxflow != 2 {
		t.Errorf("unsuppressed ctxflow findings = %d, want 2", ctxflow)
	}
}

// TestRealTreeIsClean is the lint gate: the module's production code
// carries zero findings, so any new finding is a regression, not
// pre-existing noise.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, pkg := range pkgs {
		for _, f := range Check(pkg) {
			t.Errorf("%s", f)
		}
	}
}
