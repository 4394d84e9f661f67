package lint

import (
	"go/ast"
	"go/types"
)

// ctxFlow enforces context propagation into every blocking path:
//
//   - Library (non-main) packages must never mint their own context:
//     context.Background() and context.TODO() are flagged unless they are
//     the nil-tolerance fallback `if ctx == nil { ctx = context.Background() }`
//     at the top of an exported entry point.
//   - In package main, Background/TODO is flagged when the enclosing
//     function already has a context.Context in scope — a parameter or an
//     earlier local — because the existing context is being silently
//     discarded. Detached work (a graceful-shutdown deadline after the
//     root context fired) should derive via context.WithoutCancel
//     instead, keeping the context's values.
//   - A context.Context parameter must come first in the parameter list.
//   - A named context parameter that the function body never references
//     was accepted but dropped: the blocking work it guards is
//     uncancellable.
func ctxFlow(p *pass, n ast.Node, stack []ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		name := backgroundOrTODO(p.TypesInfo, n)
		if name == "" || isNilGuardAssign(p.TypesInfo, n, stack) {
			return
		}
		if p.Types.Name() != "main" {
			p.reportf(n.Pos(),
				"context.%s() in library code: accept a context.Context from the caller and forward it", name)
			return
		}
		if fd := enclosingFuncDecl(stack); fd != nil {
			if prior := inScopeCtx(p.TypesInfo, fd, stack, n); prior != nil {
				p.reportf(n.Pos(),
					"context.%s() discards %q already in scope; derive from it (context.WithoutCancel for detached shutdown work)",
					name, prior.Name())
			}
		}
	case *ast.FuncDecl:
		checkCtxParamPosition(p, n)
		checkCtxParamForwarded(p, n)
	}
}

// backgroundOrTODO returns "Background" or "TODO" if the call is one of
// those context constructors, else "".
func backgroundOrTODO(info *types.Info, call *ast.CallExpr) string {
	if isPkgFunc(info, call, "context", "Background") {
		return "Background"
	}
	if isPkgFunc(info, call, "context", "TODO") {
		return "TODO"
	}
	return ""
}

// isNilGuardAssign recognizes the API-tolerance idiom
//
//	if ctx == nil {
//		ctx = context.Background()
//	}
//
// which keeps nil-context callers working without hiding a real context.
func isNilGuardAssign(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	target := info.Uses[lhs]
	if target == nil {
		target = info.Defs[lhs]
	}
	// The assignment must be the body of an if whose condition is
	// `<lhs> == nil` (either operand order) over the same object.
	for i := len(stack) - 2; i >= 0 && i >= len(stack)-4; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		cond, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" {
			return false
		}
		for _, pair := range [2][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
			id, ok := pair[0].(*ast.Ident)
			nilIdent, ok2 := pair[1].(*ast.Ident)
			if ok && ok2 && nilIdent.Name == "nil" && target != nil && info.Uses[id] == target {
				return true
			}
		}
		return false
	}
	return false
}

// inScopeCtx returns a context.Context-typed object that is already in
// scope at the given call: a parameter of the enclosing function, or a
// local declared in a statement that completes before the one containing
// the call. The boundary is the enclosing statement's start, so the root
// creation `ctx, stop := signal.NotifyContext(context.Background(), ...)`
// does not count its own LHS as prior scope.
func inScopeCtx(info *types.Info, fd *ast.FuncDecl, stack []ast.Node, call *ast.CallExpr) types.Object {
	if p := ctxParam(info, fd); p != nil {
		return p
	}
	var boundary = call.Pos()
	for i := len(stack) - 1; i >= 0; i-- {
		if stmt, ok := stack[i].(ast.Stmt); ok {
			boundary = stmt.Pos()
			break
		}
	}
	var found types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok && isContextType(v.Type()) && id.End() < boundary {
			found = v
		}
		return true
	})
	return found
}

// ctxParam returns the first context.Context parameter object of the
// function, or nil.
func ctxParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj, ok := info.Defs[name].(*types.Var); ok && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// checkCtxParamPosition flags context parameters that are not first.
func checkCtxParamPosition(p *pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if tv, ok := p.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			if idx > 0 {
				p.reportf(field.Pos(),
					"context.Context should be the first parameter of %s", fd.Name.Name)
			}
			return
		}
		idx += n
	}
}

// checkCtxParamForwarded flags a named, non-blank context parameter the
// body never references: the function accepted a context and dropped it.
func checkCtxParamForwarded(p *pass, fd *ast.FuncDecl) {
	if fd.Body == nil || len(fd.Body.List) == 0 || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj, ok := p.TypesInfo.Defs[name].(*types.Var)
			if !ok || !isContextType(obj.Type()) {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] == obj {
					used = true
					return false
				}
				return !used
			})
			if !used {
				p.reportf(name.Pos(),
					"context parameter %q is accepted but never forwarded; the work %s does cannot be cancelled",
					name.Name, fd.Name.Name)
			}
		}
	}
}
