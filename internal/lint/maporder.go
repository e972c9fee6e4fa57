package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags iteration over Go maps. Map iteration order varies run to run, so any map-ordered
// loop whose effect depends on visit order (floating-point
// accumulation, tie-breaking, output ordering, event scheduling) breaks
// the platform's bit-identical-replay guarantee.
//
// A range over a map is accepted when the loop body is provably
// order-insensitive:
//
//   - it only collects keys/values into local slices that are passed
//     whole (s or s[:]) to a total sort later in the same function
//     (sorted sink): sort.Strings, sort.Ints, sort.Float64s or
//     slices.Sort. A comparator sort
//     (sort.Slice, slices.SortFunc, ...) does not count, because a
//     comparator that ties on distinct elements leaves the tied run in
//     map-visit order;
//   - it only writes m2[k] = ... under the range key (distinct keys),
//     deletes from the ranged map, or sets boolean flags to constants;
//   - it only accumulates integers with commutative operators
//     (+=, -=, |=, &=, ^=, *=, ++, --);
//   - it only returns constants (existence checks).
//
// Anything else is a finding, fixed by sorting or by iterating an
// ordered slice. Calls to maps.Keys/maps.Values/maps.All are flagged
// unless wrapped directly in slices.Sorted, the fifth total sort.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	walkStack(pass, func(n ast.Node, stack []ast.Node) bool {
		if rs, isMap := mapRangeStmt(pass, n); isMap {
			if !orderInsensitiveMapRange(pass, rs, enclosingFuncDecl(stack)) {
				pass.Reportf(rs.For, "range over map %s: iteration order is nondeterministic; sort keys or keep an ordered slice", types.ExprString(rs.X))
			}
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass, call)
			for _, name := range [...]string{"Keys", "Values", "All"} {
				if isPkgFunc(fn, "maps", name) && !insideSortedCall(pass, stack) {
					pass.Reportf(call.Pos(), "maps.%s yields entries in nondeterministic order; wrap in slices.Sorted or iterate an ordered slice", name)
				}
			}
		}
		return true
	})
}

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// insideSortedCall reports whether the innermost enclosing call is
// slices.Sorted. SortedFunc and SortedStableFunc take a comparator,
// which may tie.
func insideSortedCall(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok {
			return isPkgFunc(calleeFunc(pass, call), "slices", "Sorted")
		}
	}
	return false
}

// mapRangeChecker classifies one map-range body.
type mapRangeChecker struct {
	pass      *Pass
	rs        *ast.RangeStmt
	keyObj    types.Object          // the range key variable, if named
	rangedObj types.Object          // the ranged map, if a plain identifier
	locals    map[types.Object]bool // variables declared inside the body
	crossIter map[types.Object]bool // outer variables mutated by the body
	sinks     map[types.Object]bool // append targets needing a later sort
}

// orderInsensitiveMapRange reports whether every effect of the range
// body is independent of map visit order, per the heuristics on
// MapOrder's doc comment.
func orderInsensitiveMapRange(pass *Pass, rs *ast.RangeStmt, encl *ast.FuncDecl) bool {
	c := &mapRangeChecker{
		pass:      pass,
		rs:        rs,
		keyObj:    definedObj(pass, rs.Key),
		rangedObj: identObj(pass, rs.X),
		locals:    make(map[types.Object]bool),
		crossIter: make(map[types.Object]bool),
		sinks:     make(map[types.Object]bool),
	}
	// Variables declared inside the body (including nested loops) are
	// per-iteration state; mutating them never leaks across iterations.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
		return true
	})
	if c.keyObj != nil {
		c.locals[c.keyObj] = true
	}
	if vo := definedObj(pass, rs.Value); vo != nil {
		c.locals[vo] = true
	}
	// Outer variables written by the body carry state across iterations:
	// reading them inside the loop is order-dependent.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if obj := identObj(pass, lhs); obj != nil && !c.locals[obj] {
					c.crossIter[obj] = true
				}
			}
		case *ast.IncDecStmt:
			if obj := identObj(pass, s.X); obj != nil && !c.locals[obj] {
				c.crossIter[obj] = true
			}
		}
		return true
	})
	if !c.stmtsOK(rs.Body.List) {
		return false
	}
	// Every sink slice must reach a sort before the function ends.
	for obj := range c.sinks {
		if !sortedAfter(pass, encl, rs, obj) {
			return false
		}
	}
	return true
}

func definedObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Defs[id]
}

func (c *mapRangeChecker) stmtsOK(list []ast.Stmt) bool {
	for _, s := range list {
		if !c.stmtOK(s) {
			return false
		}
	}
	return true
}

func (c *mapRangeChecker) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.DeclStmt:
		return true
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.IncDecStmt:
		obj := identObj(c.pass, s.X)
		if obj != nil && c.locals[obj] {
			return true
		}
		tv, ok := c.pass.TypesInfo.Types[s.X]
		return ok && isIntegerType(tv.Type)
	case *ast.ExprStmt:
		return c.deleteFromRanged(s.X) || c.sortOfLocal(s.X)
	case *ast.BlockStmt:
		return c.stmtsOK(s.List)
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init) {
			return false
		}
		if usesAnyObj(c.pass, s.Cond, c.crossIter) {
			return false
		}
		if !c.stmtsOK(s.Body.List) {
			return false
		}
		if s.Else != nil {
			return c.stmtOK(s.Else)
		}
		return true
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if !isConstExpr(c.pass, r) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.RangeStmt:
		return !usesAnyObj(c.pass, s.X, c.crossIter) && c.stmtsOK(s.Body.List)
	case *ast.ForStmt:
		for _, sub := range []ast.Node{s.Init, s.Cond, s.Post} {
			if usesAnyObj(c.pass, sub, c.crossIter) {
				return false
			}
		}
		return c.stmtsOK(s.Body.List)
	default:
		return false
	}
}

func (c *mapRangeChecker) assignOK(a *ast.AssignStmt) bool {
	switch a.Tok {
	case token.DEFINE:
		for _, rhs := range a.Rhs {
			if usesAnyObj(c.pass, rhs, c.crossIter) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		if len(a.Lhs) != 1 {
			return false
		}
		if usesAnyObj(c.pass, a.Rhs[0], c.crossIter) {
			return false
		}
		if obj := identObj(c.pass, a.Lhs[0]); obj != nil && c.locals[obj] {
			return true
		}
		// m2[k] op= v under the range key updates a distinct slot per
		// iteration, so visit order cannot reorder any single slot's
		// accumulation — fine for floats too.
		if idx, ok := ast.Unparen(a.Lhs[0]).(*ast.IndexExpr); ok {
			return c.keyObj != nil && usesObj(c.pass, idx.Index, c.keyObj) &&
				!usesAnyObj(c.pass, idx.X, c.crossIter)
		}
		tv, ok := c.pass.TypesInfo.Types[a.Lhs[0]]
		return ok && isIntegerType(tv.Type) // int accumulation commutes; float does not
	case token.ASSIGN:
		if len(a.Lhs) != len(a.Rhs) {
			return false
		}
		for i, lhs := range a.Lhs {
			if !c.plainAssignOK(lhs, a.Rhs[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (c *mapRangeChecker) plainAssignOK(lhs, rhs ast.Expr) bool {
	// s = append(s, ...): a sink, valid only if sorted later. The target
	// may be a plain variable or a field path (m.Labels). Checked before
	// the cross-iteration read test, which the self-referencing append
	// would otherwise fail.
	if obj, path := pathObj(c.pass, lhs); obj != nil && !c.locals[obj] {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			fid, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
			if isIdent && fid.Name == "append" && isBuiltin(c.pass, fid) && len(call.Args) > 0 {
				argObj, argPath := pathObj(c.pass, call.Args[0])
				if argObj == obj && argPath == path {
					for _, arg := range call.Args[1:] {
						if usesAnyObj(c.pass, arg, c.crossIter) {
							return false
						}
					}
					c.sinks[obj] = true
					return true
				}
			}
		}
	}
	if usesAnyObj(c.pass, rhs, c.crossIter) {
		return false
	}
	// Local (per-iteration) targets are always fine.
	if obj := identObj(c.pass, lhs); obj != nil && c.locals[obj] {
		return true
	}
	// m2[k] = ...: the range key makes each write hit a distinct slot.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		return c.keyObj != nil && usesObj(c.pass, idx.Index, c.keyObj) &&
			!usesAnyObj(c.pass, idx.X, c.crossIter)
	}
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		tv, typed := c.pass.TypesInfo.Types[lhs]
		// flag = true / flag = false: idempotent regardless of order.
		if typed && isBoolConst(c.pass, rhs) {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
				return true
			}
		}
	}
	return false
}

// sortOfLocal accepts any sort whose arguments touch only per-iteration
// locals (e.g. sorting the range value slice before collecting it): the
// input comes from one map entry, not from visit order, so even a
// comparator that ties sorts it the same way every run.
func (c *mapRangeChecker) sortOfLocal(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isSortCall(c.pass, call, anySorts) {
		return false
	}
	for _, arg := range call.Args {
		localOnly := true
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && !c.locals[v] && !v.IsField() {
					localOnly = false
				}
			}
			return localOnly
		})
		if !localOnly {
			return false
		}
	}
	return true
}

// deleteFromRanged accepts delete(m, k) on the ranged map itself.
func (c *mapRangeChecker) deleteFromRanged(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "delete" || !isBuiltin(c.pass, fid) {
		return false
	}
	return c.rangedObj != nil && identObj(c.pass, call.Args[0]) == c.rangedObj
}

// pathObj resolves a plain identifier or a selector chain of
// identifiers (x, x.f, x.f.g) to its final object plus a printed path
// for structural comparison. Anything else yields nil.
func pathObj(pass *Pass, e ast.Expr) (types.Object, string) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return identObj(pass, v), v.Name
	case *ast.SelectorExpr:
		base, path := pathObj(pass, v.X)
		if base == nil {
			return nil, ""
		}
		if obj := pass.TypesInfo.Uses[v.Sel]; obj != nil {
			return obj, path + "." + v.Sel.Name
		}
	}
	return nil, ""
}

// isBuiltin reports whether id resolves to the predeclared builtin of
// the same name (rather than a shadowing declaration).
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

func isBoolConst(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (id.Name == "true" || id.Name == "false") && isConstExpr(pass, e)
}

// sortedAfter reports whether a total sort of the whole sink obj (obj
// itself or obj[:]) appears after rs in the enclosing function. A sort
// of part of the slice (obj[:n]) leaves the rest in map-visit order.
func sortedAfter(pass *Pass, encl *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	if encl == nil || encl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call, totalSorts) {
			return true
		}
		for _, arg := range call.Args {
			if s, ok := ast.Unparen(arg).(*ast.SliceExpr); ok && s.Low == nil && s.High == nil {
				arg = s.X
			}
			if o, _ := pathObj(pass, arg); o == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// totalSorts order a slice by its element type's total order, so the
// result is the same whatever order the elements arrived in.
var totalSorts = map[string][]string{
	"sort":   {"Strings", "Ints", "Float64s"},
	"slices": {"Sort"},
}

// anySorts adds the comparator sorts, whose tied runs keep input order.
var anySorts = map[string][]string{
	"sort":   {"Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable"},
	"slices": {"Sort", "SortFunc", "SortStableFunc"},
}

// isSortCall reports whether call invokes one of sorts.
func isSortCall(pass *Pass, call *ast.CallExpr, sorts map[string][]string) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	for pkg, names := range sorts {
		for _, name := range names {
			if isPkgFunc(fn, pkg, name) {
				return true
			}
		}
	}
	return false
}
