package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses every file in the pass, calling fn with each node
// and the stack of its ancestors (outermost first, excluding the node
// itself). Returning false prunes the subtree.
func walkStack(pass *Pass, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			enter := fn(n, stack)
			if enter {
				stack = append(stack, n)
			}
			return enter
		})
	}
}

// mapRangeStmt reports whether n ranges over a map value.
func mapRangeStmt(pass *Pass, n ast.Node) (*ast.RangeStmt, bool) {
	rs, ok := n.(*ast.RangeStmt)
	if !ok {
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return nil, false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, isMap := t.Underlying().(*types.Map)
	return rs, isMap
}

// calleeFunc resolves the called package-level function (or method) of
// a call expression, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// identObj resolves an identifier (possibly parenthesised) to its object.
func identObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// usesObj reports whether expr references obj anywhere.
func usesObj(pass *Pass, expr ast.Node, obj types.Object) bool {
	if expr == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// usesAnyObj reports whether expr references any object in objs.
func usesAnyObj(pass *Pass, expr ast.Node, objs map[types.Object]bool) bool {
	if expr == nil || len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// isIntegerType reports whether t's core type is an integer.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// internalPkg reports whether path is one of this module's packages
// under any of the given trees (e.g. "internal", "cmd").
func internalPkg(path, modPath string, trees ...string) bool {
	for _, tree := range trees {
		prefix := modPath + "/" + tree
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}
