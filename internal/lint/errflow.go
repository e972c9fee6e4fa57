package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrFlow flags error values that are produced and then lost: assigned
// from a call that can actually fail, but neither returned, passed to
// another call, stored, nor traced before being overwritten or going
// out of scope. Checking the error (err != nil) does not count as
// handling it — `if err != nil { break }` on a recovery path observes
// the failure and then silently discards its cause, which is exactly
// the bug class that turns a deterministic fault-injection run into an
// undiagnosable flake.
//
// Interprocedural summaries keep the signal clean: a dropped error from
// a callee that provably always returns nil is not reported. Error
// variables captured by closures — declared outside a func literal that
// reads or writes them — are skipped entirely: the closure may run at
// any time (deferred, handed to the scheduler), so the positional
// write/use model cannot order its accesses. Variables declared inside
// a closure are still tracked; their lifetime is confined to one body.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Run:  runErrFlow,
}

// errSummary records whether a function can return a non-nil error.
type errSummary struct {
	mayFail bool
}

// mayFail reports whether fn can return a non-nil error, computed once
// per function from its return statements (forwarded calls recurse
// through summaries; recursion resolves optimistically).
func (ip *interproc) mayFail(fn *types.Func) bool {
	if s, ok := ip.errSummaries[fn]; ok {
		return s.mayFail
	}
	n := ip.node(fn)
	if n == nil {
		return true
	}
	if ip.errBusy[fn] {
		return false
	}
	ip.errBusy[fn] = true
	s := &errSummary{mayFail: computeMayFail(ip, n)}
	delete(ip.errBusy, fn)
	ip.errSummaries[fn] = s
	return s.mayFail
}

func computeMayFail(ip *interproc, n *cgNode) bool {
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok || n.decl.Body == nil {
		return true
	}
	var errIdx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return false
	}
	fails := false
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if fails {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false // nested function's returns are its own
		}
		r, ok := node.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(r.Results) == 0:
			fails = true // naked return: a named error result may be set
		case len(r.Results) == 1 && sig.Results().Len() > 1:
			// return f(): all results forwarded from one call.
			fails = fails || callMayFail(ip, n.pkg, r.Results[0])
		default:
			for _, i := range errIdx {
				if i >= len(r.Results) {
					fails = true
					continue
				}
				res := r.Results[i]
				if tv, ok := n.pkg.Info.Types[res]; ok && tv.IsNil() {
					continue
				}
				fails = fails || callMayFail(ip, n.pkg, res)
			}
		}
		return true
	})
	return fails
}

// callMayFail reports whether expression e, used as a returned error,
// can be non-nil: a call to a function that may fail, or anything we
// cannot resolve (variables, wrapped errors).
func callMayFail(ip *interproc, pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return true
	}
	fn := staticCallee(pkg.Info, call)
	if fn == nil {
		return true
	}
	return ip.mayFail(fn)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func runErrFlow(pass *Pass) {
	ip := pass.pkg.interproc()
	if ip == nil {
		return
	}
	g := ip.graphFor(pass.pkg)
	for _, n := range g.order {
		if n.decl.Body == nil {
			continue
		}
		checkErrFlow(pass, ip, n.decl)
	}
}

type errWrite struct {
	pos     token.Pos // report position (the assignment)
	end     token.Pos // ordering position: stmt end, so same-stmt RHS uses precede
	callee  string    // producing call, "" for plain value writes
	mayFail bool
	loopPos token.Pos // innermost enclosing loop range, 0 when not in a loop
	loopEnd token.Pos
}

type errUse struct {
	pos    token.Pos
	escape bool
}

type errVar struct {
	obj       types.Object
	writes    []errWrite
	uses      []errUse
	inClosure bool // used inside a func literal: positional model breaks down
}

func checkErrFlow(pass *Pass, ip *interproc, fd *ast.FuncDecl) {
	vars := make(map[types.Object]*errVar)
	var order []*errVar
	get := func(obj types.Object) *errVar {
		v := vars[obj]
		if v == nil {
			v = &errVar{obj: obj}
			vars[obj] = v
			order = append(order, v)
		}
		return v
	}

	recordWrite := func(obj types.Object, lhsPos token.Pos, end token.Pos, rhs ast.Expr, stack []ast.Node) {
		if capturedBy(obj, stack) {
			get(obj).inClosure = true
			return
		}
		w := errWrite{pos: lhsPos, end: end}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			w.callee = calleeName(pass, call)
			fn := staticCallee(pass.pkg.Info, call)
			if fn == nil {
				w.mayFail = true
			} else {
				w.mayFail = ip.mayFail(fn)
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			switch l := stack[i].(type) {
			case *ast.ForStmt:
				w.loopPos, w.loopEnd = l.Pos(), l.End()
			case *ast.RangeStmt:
				w.loopPos, w.loopEnd = l.Pos(), l.End()
			case *ast.FuncLit:
				i = -1 // loop boundaries outside a closure do not apply
			}
			if w.loopPos != 0 {
				break
			}
		}
		get(obj).writes = append(get(obj).writes, w)
	}

	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				return true
			}
			multi := len(n.Rhs) == 1 && len(n.Lhs) > 1
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isErrorType(obj.Type()) {
					continue
				}
				rhs := ast.Expr(nil)
				if multi {
					rhs = n.Rhs[0]
				} else if i < len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				if rhs == nil {
					continue
				}
				recordWrite(obj, lhs.Pos(), n.End(), rhs, stack)
			}
		case *ast.ValueSpec:
			// var err error = f()
			for i, name := range n.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil || !isErrorType(obj.Type()) || i >= len(n.Values) {
					continue
				}
				recordWrite(obj, name.Pos(), n.End(), n.Values[i], stack)
			}
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj == nil || !isErrorType(obj.Type()) {
				return true
			}
			if isAssignTarget(n, stack) {
				return true
			}
			v := get(obj)
			if capturedBy(obj, stack) {
				v.inClosure = true
				return true
			}
			escape, inClosure, decided := classifyErrUse(n, stack)
			if inClosure {
				v.inClosure = true
				return true
			}
			if decided {
				v.uses = append(v.uses, errUse{pos: n.Pos(), escape: escape})
			}
		case *ast.ReturnStmt:
			// Naked returns propagate every named error result.
			if len(n.Results) == 0 && fd.Type.Results != nil {
				for _, field := range fd.Type.Results.List {
					for _, name := range field.Names {
						obj := pass.TypesInfo.Defs[name]
						if obj != nil && isErrorType(obj.Type()) {
							get(obj).uses = append(get(obj).uses, errUse{pos: n.Pos(), escape: true})
						}
					}
				}
			}
		}
		return true
	})

	const endPos = token.Pos(1 << 30)
	for _, v := range order {
		if v.inClosure {
			continue
		}
		sortWrites(v.writes)
		sortUses(v.uses)
		for wi, w := range v.writes {
			if !w.mayFail || w.callee == "" {
				continue
			}
			next := endPos
			if wi+1 < len(v.writes) {
				next = v.writes[wi+1].end
			}
			escaped, checked := false, false
			for _, u := range v.uses {
				inInterval := u.pos > w.end && u.pos < next
				inLoop := w.loopPos != 0 && u.pos >= w.loopPos && u.pos <= w.loopEnd
				if !inInterval && !inLoop {
					continue
				}
				checked = true
				if u.escape {
					escaped = true
					break
				}
			}
			if escaped {
				continue
			}
			name := v.obj.Name()
			switch {
			case next != endPos && !checked:
				pass.Reportf(w.pos, "error from %s assigned to %s is overwritten before it is even checked; the failure is silently lost", w.callee, name)
			case next != endPos:
				pass.Reportf(w.pos, "error from %s assigned to %s is checked but never escapes (not returned, passed on, or stored) before being overwritten; the failure cause is silently dropped", w.callee, name)
			case !checked:
				pass.Reportf(w.pos, "error from %s assigned to %s is neither checked nor propagated; a recovery-path failure would be silently lost", w.callee, name)
			default:
				pass.Reportf(w.pos, "error from %s assigned to %s is checked but never escapes this function (not returned, passed on, stored, or traced); the failure cause is silently dropped", w.callee, name)
			}
		}
	}
}

func sortWrites(ws []errWrite) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].end < ws[j-1].end; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func sortUses(us []errUse) {
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j].pos < us[j-1].pos; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
}

// capturedBy reports whether obj is referenced from inside a func
// literal it was declared outside of — a closure capture, whose
// execution time the positional model cannot order.
func capturedBy(obj types.Object, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return obj.Pos() < fl.Pos() || obj.Pos() > fl.End()
		}
	}
	return false
}

// isAssignTarget reports whether id is a left-hand side of its nearest
// enclosing assignment (a write, not a use).
func isAssignTarget(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	a, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range a.Lhs {
		if ast.Unparen(lhs) == ast.Expr(id) {
			return true
		}
	}
	return false
}

// classifyErrUse decides what a read of an error variable does with the
// value: escape (it leaves the function's hands — returned, passed to a
// call, stored somewhere, examined via method/field access) versus a
// bare check (nil comparison, switch). decided=false means the walk ran
// out of context (treated as a check by the caller's default).
func classifyErrUse(id *ast.Ident, stack []ast.Node) (escape, inClosure, decided bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.FuncLit:
			return false, true, false
		case *ast.ParenExpr, *ast.TypeAssertExpr:
			// transparent: keep climbing
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true, false, true // address taken: aliases escape
			}
		case *ast.SelectorExpr:
			if p.Sel != id {
				return true, false, true // err.Error(), err.Field: content read out
			}
		case *ast.CallExpr:
			if id.Pos() >= p.Lparen {
				return true, false, true // argument to a call (incl. panic, errors.Is)
			}
		case *ast.ReturnStmt:
			return true, false, true
		case *ast.AssignStmt:
			if id.Pos() > p.TokPos {
				return true, false, true // flows into another variable/field/slot
			}
			return false, false, false // LHS of an outer assignment
		case *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			return true, false, true
		case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
			*ast.CaseClause, *ast.ForStmt, *ast.RangeStmt, *ast.ExprStmt:
			return false, false, true // condition-only: a check, not handling
		}
	}
	return false, false, true
}

// calleeName renders the called expression for diagnostics: the static
// callee's name when resolvable, a printed expression otherwise.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := staticCallee(pass.pkg.Info, call); fn != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return types.ExprString(sel.X) + "." + fn.Name()
		}
		return fn.Name()
	}
	return types.ExprString(call.Fun)
}

// inspectWithStack is ast.Inspect carrying the ancestor stack
// (outermost first, excluding the node itself).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
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
