package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc guards the zero-allocation discipline of functions annotated
// //vhlint:hot (the data-plane fast paths: partitioner, k-way merge,
// tokenizer, distance kernels). Inside a hot function it flags:
//
//   - any fmt.* call — every argument is boxed into an interface and
//     Sprintf-style formatting allocates its result;
//   - obs registry lookups (Counter/Gauge/Histogram) — each call
//     rebuilds the canonical metric key and probes the registry map;
//     hot paths must resolve handles at construction and use them;
//   - obs formatted-event calls (Eventf) — argument boxing on every
//     call even when rendering is deferred;
//   - string concatenation with + inside a loop — each iteration
//     allocates an intermediate string;
//   - escaping closures: a func literal that captures enclosing
//     variables and is passed to a call, returned, or stored in a
//     non-local — its context escapes to the heap. A closure assigned
//     to a local variable and only called directly stays on the stack
//     and is not flagged.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation sources inside //vhlint:hot functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	hot := hotFuncs(pass)
	walkStack(pass, func(n ast.Node, stack []ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || !hot[fd] {
			return true
		}
		checkHotFunc(pass, fd)
		return false // already checked the whole body
	})
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	// Closures bound to local variables (fn := func(...){...}) stay on
	// the stack only while every use is a direct call fn(...). Collect
	// them first, then flag any use that lets the value escape.
	localClosures := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range a.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(a.Lhs) || !capturesOuter(pass, lit) {
				continue
			}
			if obj := definedObj(pass, a.Lhs[i]); obj != nil {
				localClosures[obj] = lit
			} else if obj := identObj(pass, a.Lhs[i]); obj != nil {
				localClosures[obj] = lit
			}
		}
		return true
	})
	reported := make(map[*ast.FuncLit]bool)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if lit := localClosures[pass.TypesInfo.Uses[id]]; lit != nil && !reported[lit] && !directCallUse(stack, id) {
				reported[lit] = true
				pass.Reportf(lit.Pos(), "closure %s in hot function %s escapes (used as a value, not just called), so its capture context is heap-allocated", id.Name, fd.Name.Name)
			}
		}
		switch e := n.(type) {
		case *ast.AssignStmt:
			checkAppendGrowth(pass, fd, e, stack)
		case *ast.CallExpr:
			if fn := calleeFunc(pass, e); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "fmt" && isPackageLevelFunc(fn):
					pass.Reportf(e.Pos(), "fmt.%s in hot function %s allocates (interface boxing + formatted result)", fn.Name(), fd.Name.Name)
				case isObsLookup(fn):
					pass.Reportf(e.Pos(), "obs lookup %s in hot function %s rebuilds the metric key per call; resolve the handle at construction (cached field)", fn.Name(), fd.Name.Name)
				case isObsFormat(fn):
					pass.Reportf(e.Pos(), "obs %s in hot function %s boxes its arguments per call; move the event off the hot path or precompute the message", fn.Name(), fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && insideLoop(stack) {
				if tv, ok := pass.TypesInfo.Types[e]; ok && isStringType(tv.Type) {
					pass.Reportf(e.Pos(), "string concatenation in a loop inside hot function %s allocates per iteration; use a byte slice or index arithmetic", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if closureEscapes(stack) && capturesOuter(pass, e) {
				pass.Reportf(e.Pos(), "escaping closure in hot function %s allocates its capture context on the heap", fd.Name.Name)
				stack = append(stack, n)
				return true
			}
		}
		stack = append(stack, n)
		return true
	})
}

// obsPkgPath is the observability plane package the hot-path rules key
// off. Methods are matched by receiver package, not receiver type, so
// Registry, Plane and Tracer lookups are all covered.
const obsPkgPath = "vhadoop/internal/obs"

// obsMethod reports whether fn is a method named name declared in the
// obs package.
func obsMethod(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// isObsLookup reports whether fn is an obs registry lookup: the string
// keyed Counter/Gauge/Histogram accessors that rebuild the canonical key
// and probe the registry map per call.
func isObsLookup(fn *types.Func) bool {
	return obsMethod(fn, "Counter", "Gauge", "Histogram")
}

// isObsFormat reports whether fn is a formatted obs event emitter:
// even with rendering deferred to export time, every call boxes its
// arguments into []any.
func isObsFormat(fn *types.Func) bool {
	return obsMethod(fn, "Eventf")
}

// checkAppendGrowth flags s = append(s, ...) inside a loop of a hot
// function when s is a local slice declared without capacity: each
// growth past the backing array reallocates and copies, exactly the
// amortized churn the hot annotation promises away. Parameters and
// slices pre-sized with a three-argument make are exempt.
func checkAppendGrowth(pass *Pass, fd *ast.FuncDecl, a *ast.AssignStmt, stack []ast.Node) {
	if !insideLoop(stack) || len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		call, ok := ast.Unparen(a.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fid.Name != "append" || !isBuiltin(pass, fid) || len(call.Args) == 0 {
			continue
		}
		obj := identObj(pass, lhs)
		if obj == nil {
			obj = definedObj(pass, lhs)
		}
		if obj == nil || obj != identObj(pass, call.Args[0]) {
			continue // only self-appends grow a tracked slice
		}
		v, ok := obj.(*types.Var)
		if !ok || !uncappedLocalSlice(pass, fd, v) {
			continue
		}
		pass.Reportf(call.Pos(), "append growth of %s in a loop inside hot function %s reallocates as the slice grows; pre-size it with make(len, cap) before the loop", v.Name(), fd.Name.Name)
	}
}

// uncappedLocalSlice reports whether v is a slice declared inside fd's
// body with no capacity reserve: `var s []T`, `s := []T{...}`, or a
// make with fewer than three arguments. Parameters and slices built by
// other calls (unknown capacity) are not flagged.
func uncappedLocalSlice(pass *Pass, fd *ast.FuncDecl, v *types.Var) bool {
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return false
	}
	if fd.Body == nil || v.Pos() < fd.Body.Pos() || v.Pos() > fd.Body.End() {
		return false // parameter, receiver, or package-level
	}
	uncapped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if definedObj(pass, lhs) != types.Object(v) || i >= len(n.Rhs) {
					continue
				}
				uncapped = uncappedInit(pass, n.Rhs[i])
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] != types.Object(v) {
					continue
				}
				if i >= len(n.Values) {
					uncapped = true // var s []T: nil slice, zero capacity
				} else {
					uncapped = uncappedInit(pass, n.Values[i])
				}
			}
		}
		return true
	})
	return uncapped
}

// uncappedInit reports whether the initializer provably reserves no
// spare capacity: a composite literal or a make without a capacity
// argument. Anything else (another call, a slice expression) may carry
// capacity we cannot see, so it is not flagged.
func uncappedInit(pass *Pass, rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		fid, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if ok && fid.Name == "make" && isBuiltin(pass, fid) {
			return len(e.Args) < 3
		}
	}
	return false
}

// directCallUse reports whether the identifier at the top of the walk
// is the function position of a call (fn(...)) — the one use of a local
// closure that does not force its context to escape.
func directCallUse(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == id
}

func insideLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// closureEscapes reports whether the func literal whose ancestors are
// stack is in an escaping position: a call argument, a return value, a
// composite literal element, or the right-hand side of anything other
// than a plain local-variable assignment.
func closureEscapes(stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		return true // argument to a call (or immediately invoked via another path)
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.AssignStmt:
		// fn := func(...) {...} with a plain identifier target stays
		// stack-allocated when only called locally; anything fancier
		// (struct field, map slot, global) escapes.
		for i, rhs := range parent.Rhs {
			if _, ok := rhs.(*ast.FuncLit); ok && i < len(parent.Lhs) {
				if _, isIdent := parent.Lhs[i].(*ast.Ident); !isIdent {
					return true
				}
			}
		}
		return false
	default:
		return true
	}
}

// capturesOuter reports whether the func literal references a variable
// declared outside itself (a capture). Capture-free literals carry no
// context and cost nothing even when they escape.
func capturesOuter(pass *Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Parent() == nil {
			return true
		}
		// A use whose definition lies outside the literal is a capture
		// (package-level objects excepted: they are not captured state).
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			if obj.Parent() != obj.Pkg().Scope() {
				captured = true
				return false
			}
		}
		return true
	})
	return captured
}
