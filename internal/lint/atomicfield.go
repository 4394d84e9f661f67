package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// atomicField enforces typed atomics: a pointer-style sync/atomic call
// (atomic.AddInt64(&x, ...), atomic.LoadUint64(&x), ...) is a finding.
// Such calls leave x a plain variable, so a plain read racing an atomic
// write compiles and is only caught when the race detector sees the
// interleaving. A typed atomic (atomic.Int64 & co.) makes that mixed
// access a compile error.
func atomicField(p *pass, n ast.Node, _ []ast.Node) {
	if call, ok := n.(*ast.CallExpr); ok && isAtomicCall(p.TypesInfo, call) {
		p.reportf(call.Pos(),
			"pointer-style sync/atomic call leaves the variable open to plain access; use a typed atomic (atomic.Int64 & co.)")
	}
}

// isAtomicCall reports whether the call is a sync/atomic package function
// that operates through a pointer (Add*, Load*, Store*, Swap*,
// CompareAndSwap*, And*, Or*).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Typed-atomic methods have receivers.
	if fn.Signature().Recv() != nil {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}
