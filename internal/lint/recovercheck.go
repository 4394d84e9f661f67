package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// recoverCheck flags recover() uses that swallow the panic value: a bare
// `recover()` statement, `_ = recover()`, or a comparison like
// `recover() != nil` that tests for a panic without binding it. A
// containment site that discards the value turns every future panic into
// a silent no-op — no message, no stack, no trace ID — which is exactly
// the failure mode the fault-injection work exists to prevent. Bind the
// value (`if rec := recover(); rec != nil { ... }`) and carry it into a
// structured error (fault.AsError) or a log record.
func recoverCheck(p *pass, n ast.Node, _ []ast.Node) {
	info := p.TypesInfo
	switch n := n.(type) {
	case *ast.ExprStmt:
		if isRecoverCall(info, n.X) {
			p.reportf(n.Pos(), "recover() swallows the panic value: bind it and carry it into an error or log record")
		}
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if isRecoverCall(info, rhs) && i < len(n.Lhs) && isBlankIdent(n.Lhs[i]) {
				p.reportf(n.Pos(), "recover() swallows the panic value: bind it instead of assigning to _")
			}
		}
	case *ast.BinaryExpr:
		if n.Op != token.EQL && n.Op != token.NEQ {
			return
		}
		if (isRecoverCall(info, n.X) && isNilExpr(info, n.Y)) ||
			(isRecoverCall(info, n.Y) && isNilExpr(info, n.X)) {
			p.reportf(n.Pos(), "recover() swallows the panic value: use `if rec := recover(); rec != nil` so the value survives")
		}
	}
}

// isRecoverCall reports whether e is a call of the recover builtin.
func isRecoverCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}

func isBlankIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
