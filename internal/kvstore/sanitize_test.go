package kvstore

import (
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// TestSanitizeInjective is the collision regression: before the escape
// encoding, sanitize("a/b") and sanitize("a_b") both produced "a_b",
// silently merging two operators' lineage stores in one log file.
func TestSanitizeInjective(t *testing.T) {
	pairs := [][2]string{
		{"a/b", "a_b"},
		{"a/b", "a b"},
		{"a b", "a_b"},
		{"run/node/strat", "run_node_strat"},
		{"x__y", "x_/y"}, // literal double underscore vs escaped slash's neighbor
		{"", "store"},    // empty namespace must not collide with a real one
		{"_", "__"},
		{"Node", "node"}, // distinct even after case folding
		{"UB", "_ub"},
	}
	for _, p := range pairs {
		a, b := sanitize(p[0]), sanitize(p[1])
		if a == b {
			t.Errorf("sanitize(%q) == sanitize(%q) == %q", p[0], p[1], a)
		}
	}
	// Properties over random string pairs: injectivity, and — because the
	// output alphabet is case-folded — injectivity even under the case
	// collapsing of macOS/Windows filesystems.
	if err := quick.Check(func(a, b string) bool {
		return a == b || !strings.EqualFold(sanitize(a), sanitize(b))
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a string) bool {
		out := sanitize(a)
		return out == strings.ToLower(out)
	}, nil); err != nil {
		t.Error(err)
	}
	// Output must stay a safe single path element.
	for _, ns := range []string{"a/b", "../../etc/passwd", "c:\\x", "α/β", "run001/node/strat"} {
		out := sanitize(ns)
		if strings.ContainsAny(out, "/\\") || out == "." || out == ".." {
			t.Errorf("sanitize(%q) = %q is not a safe file name", ns, out)
		}
	}
}

// TestManagerNoNamespaceCollisionOnDisk pins the end-to-end symptom: two
// namespaces that used to collide must get distinct backing files and
// fully isolated contents.
func TestManagerNoNamespaceCollisionOnDisk(t *testing.T) {
	root := t.TempDir()
	mgr, err := NewManager(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sa, err := mgr.Open("a/b")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mgr.Open("a_b")
	if err != nil {
		t.Fatal(err)
	}
	if err := putOne(sa, []byte("k"), []byte("slash")); err != nil {
		t.Fatal(err)
	}
	if err := putOne(sb, []byte("k"), []byte("underscore")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{sa, sb} {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	files, err := filepath.Glob(filepath.Join(root, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("expected 2 backing files, got %v", files)
	}

	// Each namespace sees only its own record.
	for _, c := range []struct {
		ns, want string
		s        Store
	}{{"a/b", "slash", sa}, {"a_b", "underscore", sb}} {
		ns, want, s := c.ns, c.want, c.s
		v, ok, err := lookup(s, []byte("k"))
		if err != nil || !ok {
			t.Fatalf("%s: get: ok=%v err=%v", ns, ok, err)
		}
		if string(v) != want {
			t.Fatalf("%s holds %q, want %q — namespaces merged", ns, v, want)
		}
		if s.Len() != 1 {
			t.Fatalf("%s holds %d records, want 1", ns, s.Len())
		}
	}

	// Drop must remove only its own namespace's file.
	if err := mgr.Drop("a/b"); err != nil {
		t.Fatal(err)
	}
	files, err = filepath.Glob(filepath.Join(root, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("after drop expected 1 backing file, got %v", files)
	}
}
