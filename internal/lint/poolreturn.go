package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolReturn checks that values obtained from bitmap.Pool.Get or
// sync.Pool.Get reach the matching Put on every return path. A pooled
// bitmap leaked on an error path silently degrades the pool back to
// per-query allocation — exactly the regression the pooling work was
// measured against.
//
// The analysis is local and ownership-aware rather than a full CFG
// dataflow: a Get-value that escapes the function (returned, stored into
// a field/container, or handed to another call) transfers ownership and
// is not the Get-site's responsibility anymore. For values that stay
// local, either a deferred Put must exist, or no return statement may
// occur between the Get and the first Put.
func poolReturn(p *pass, n ast.Node, _ []ast.Node) {
	if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
		checkPoolFunc(p, fd)
	}
}

// poolUse accumulates what one function does with one Get-value.
type poolUse struct {
	getPos      token.Pos
	deferredPut bool
	firstPutPos token.Pos
	putCount    int
	escapes     bool
	reassigned  bool
	leakReturns []token.Pos // returns between Get and first Put
}

func checkPoolFunc(p *pass, fd *ast.FuncDecl) {
	info := p.TypesInfo

	// Find `x := pool.Get(...)` bindings (possibly via type assertion for
	// sync.Pool) and dropped Get results.
	uses := make(map[*types.Var]*poolUse)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isPoolGet(info, call) {
				p.reportf(call.Pos(), "result of pool Get is dropped: the pooled value can never be returned with Put")
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			rhs := ast.Unparen(n.Rhs[0])
			if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
				rhs = ast.Unparen(ta.X)
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isPoolGet(info, call) {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				p.reportf(call.Pos(), "result of pool Get is dropped: the pooled value can never be returned with Put")
				return true
			}
			obj, _ := info.Defs[id].(*types.Var)
			if obj == nil {
				obj, _ = info.Uses[id].(*types.Var)
			}
			if obj != nil {
				if _, dup := uses[obj]; !dup {
					uses[obj] = &poolUse{getPos: call.Pos()}
				}
			}
		}
		return true
	})
	if len(uses) == 0 {
		return
	}

	classifyPoolUses(p, fd, uses)

	for obj, u := range uses {
		switch {
		case u.reassigned, u.deferredPut:
			// Rebound values are beyond this local analysis; a deferred
			// Put covers every path by construction.
		case u.escapes:
			// Ownership transferred: returned, stored, or handed off.
		case u.putCount == 0:
			p.reportf(u.getPos,
				"%q is obtained from a pool but never returned with Put on any path", obj.Name())
		default:
			for _, pos := range u.leakReturns {
				p.reportf(pos,
					"return leaks pooled value %q: no Put on this path (defer the Put, or Put before returning)", obj.Name())
			}
		}
	}
}

// classifyPoolUses walks the function recording how each tracked value is
// used: Put calls (deferred or not), escapes, reassignments, and return
// statements that precede the first Put.
func classifyPoolUses(p *pass, fd *ast.FuncDecl, uses map[*types.Var]*poolUse) {
	info := p.TypesInfo

	lookup := func(id *ast.Ident) *poolUse {
		obj, _ := info.Uses[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Defs[id].(*types.Var)
		}
		if obj == nil {
			return nil
		}
		return uses[obj]
	}

	var returns []token.Pos
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, ret.Pos())
		}
		if id, ok := n.(*ast.Ident); ok {
			if u := lookup(id); u != nil && id.Pos() > u.getPos {
				classifyUse(info, id, u, stack)
			}
		}
	})

	// Returns between a Get and its first Put leak on that path.
	for _, u := range uses {
		if u.putCount == 0 || u.deferredPut {
			continue
		}
		for _, rpos := range returns {
			if rpos > u.getPos && rpos < u.firstPutPos {
				u.leakReturns = append(u.leakReturns, rpos)
			}
		}
	}
}

// classifyUse records what one identifier occurrence does with the
// tracked pooled value.
func classifyUse(info *types.Info, id *ast.Ident, u *poolUse, stack []ast.Node) {
	parent := innermost(stack, 0)
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				u.reassigned = true
				return
			}
		}
		// id on the RHS: escapes unless assigned to a plain local ident.
		for _, rhs := range p.Rhs {
			if containsIdent(rhs, id) {
				for _, lhs := range p.Lhs {
					if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
						u.escapes = true
						return
					}
				}
				// Plain ident alias: treat as reassignment-like handoff.
				u.escapes = true
				return
			}
		}
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == id {
				if isPoolPut(info, p) {
					u.putCount++
					if u.firstPutPos == 0 || p.Pos() < u.firstPutPos {
						u.firstPutPos = p.Pos()
					}
					if underDefer(stack) {
						u.deferredPut = true
					}
				} else {
					u.escapes = true
				}
				return
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
		u.escapes = true
	}
}

// innermost returns the stack entry n levels above the current node.
func innermost(stack []ast.Node, n int) ast.Node {
	idx := len(stack) - 1 - n
	if idx < 0 {
		return nil
	}
	return stack[idx]
}

// underDefer reports whether the stack passes through a DeferStmt (a
// direct `defer pool.Put(x)` or a deferred closure).
func underDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// containsIdent reports whether expr contains this exact identifier node.
func containsIdent(expr ast.Expr, id *ast.Ident) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == id {
			found = true
		}
		return !found
	})
	return found
}

// isPoolGet reports whether the call is (*bitmap.Pool).Get or
// (*sync.Pool).Get.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	return isPoolMethod(info, call, "Get")
}

// isPoolPut reports whether the call is (*bitmap.Pool).Put or
// (*sync.Pool).Put.
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	return isPoolMethod(info, call, "Put")
}

func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig := fn.Signature()
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	return isNamed(t, "sync", "Pool") || isNamed(t, "internal/bitmap", "Pool")
}
