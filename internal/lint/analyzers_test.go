package lint_test

import (
	"testing"

	"subzero/internal/lint"
	"subzero/internal/lint/linttest"
)

// Each analyzer runs over a fixture package seeded with violations,
// sanctioned idioms, and a //lint:ignore case; the fixture's want
// comments are the expected diagnostic set.

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "./testdata/src/ctxflow")
}

func TestCtxFlowMainPackage(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "./testdata/src/ctxflow_main")
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, lint.AtomicField, "./testdata/src/atomicfield")
}

func TestPoolReturn(t *testing.T) {
	linttest.Run(t, lint.PoolReturn, "./testdata/src/poolreturn")
}

func TestRecoverCheck(t *testing.T) {
	linttest.Run(t, lint.RecoverCheck, "./testdata/src/recovercheck")
}

func TestWireTag(t *testing.T) {
	linttest.Run(t, lint.WireTag, "./testdata/src/wiretag")
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not resolve", a.Name)
		}
		if lint.ByName("subzero/"+a.Name) != a {
			t.Errorf("ByName(%q) did not resolve", "subzero/"+a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName accepted an unknown analyzer")
	}
}
