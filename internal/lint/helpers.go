package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// namedType unwraps aliases and pointers down to the *types.Named core of
// t, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers/aliases) is the
// named type pkgPath.name. pkgPath matches exactly, or by "/"-suffix so
// fixture modules (e.g. badmod/internal/bitmap) satisfy checks written
// against subzero's package layout.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	return pathMatches(n.Obj().Pkg().Path(), pkgPath)
}

// pathMatches reports whether got is want or ends in "/"+want.
func pathMatches(got, want string) bool {
	return got == want || strings.HasSuffix(got, "/"+want)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool {
	return isNamed(t, "time", "Duration")
}

// staticCallee resolves the *types.Func a call statically dispatches to,
// or nil for dynamic calls (function values, interface methods resolve to
// the interface method object).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether the call statically resolves to a function of
// the given package path (suffix-matched) with one of the given names.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), pkgPath) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// enclosingFuncDecl returns the innermost FuncDecl on the stack, or nil.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
