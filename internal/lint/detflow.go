package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow traces nondeterministic values across function boundaries
// into the sinks that fixed-seed reproducibility is judged by: the obs
// span trace and metrics registry, the nmon event stream
// (Monitor.Annotate), the job service's tenant report and submissions,
// job output (mapreduce.Emit), and — in package main — program output
// (fmt.Print*, os.WriteFile).
//
// Sources of taint are the host clock (time.Now and friends), the
// global math/rand stream, map iteration order, and goroutine
// completion order (channel receives). Values derived from a tainted
// value stay tainted through assignments, arithmetic, composite
// literals, field/index reads and calls. Crossing a module-local call
// uses a per-function summary (which argument positions reach the
// results, which reach a sink), so whole-tree analysis is linear in
// package count; unknown callees conservatively pass taint from
// arguments to results.
//
// Sorting cleanses map-order taint only when the comparison is provably
// a total order: sort.Strings/Ints/Float64s, slices.Sort and
// slices.Sorted. Comparator sorts (sort.Slice, slices.SortFunc, ...)
// do NOT cleanse — a comparator that ties on distinct elements leaves
// the tied range in map-visit order, the exact hole maporder's
// sorted-sink exoneration cannot see. Functions whose determinism is
// argued by hand opt out with //vhlint:detsafe -- <reason> on the doc
// comment: the body is skipped and the results are treated as clean.
var DetFlow = &Analyzer{
	Name:      "detflow",
	Doc:       "trace nondeterministic values interprocedurally into trace/monitor/output sinks",
	AppliesTo: determinismCritical,
	Run:       runDetFlow,
}

// taint is a bitset of nondeterminism colors. The low bits are concrete
// sources; the remaining bits are symbolic parameter colors used while
// computing a function summary.
type taint uint64

const (
	taintMapOrder taint = 1 << iota // map iteration order
	taintClock                      // host wall clock
	taintRand                       // global math/rand stream
	taintChan                       // goroutine completion order (channel receive)

	numTaintKinds = iota
)

// kindMask selects the concrete source colors.
const kindMask taint = 1<<numTaintKinds - 1

const maxTaintParams = 64 - numTaintKinds

// paramColor is the symbolic color of parameter i during summary
// computation. Functions with more parameters than bits lose tracking
// for the overflow positions (their flows go unreported, never
// misreported).
func paramColor(i int) taint {
	if i < 0 || i >= maxTaintParams {
		return 0
	}
	return 1 << (numTaintKinds + i)
}

// paramBits extracts the symbolic parameter colors as a position mask.
func paramBits(t taint) uint64 { return uint64(t >> numTaintKinds) }

func (t taint) describe() string {
	var parts []string
	if t&taintMapOrder != 0 {
		parts = append(parts, "map iteration order")
	}
	if t&taintClock != 0 {
		parts = append(parts, "the host clock")
	}
	if t&taintRand != 0 {
		parts = append(parts, "the global math/rand stream")
	}
	if t&taintChan != 0 {
		parts = append(parts, "goroutine completion order")
	}
	return strings.Join(parts, " and ")
}

// detSummary is one function's taint behaviour as seen from a call
// site. Argument positions are receiver-first for methods.
type detSummary struct {
	safe       bool   // //vhlint:detsafe: results clean, body vouched for
	ret        taint  // concrete colors always present on the results
	retParams  uint64 // bit i: argument i's colors propagate to the results
	sinkParams uint64 // bit i: argument i reaches a trace/output sink inside
}

// detSummaryFor computes (once) the taint summary of fn, or nil when fn
// has no module-local source. Recursion is broken optimistically: a
// cycle participant sees an empty summary for the functions still on
// the stack.
func (ip *interproc) detSummaryFor(fn *types.Func) *detSummary {
	if s, ok := ip.detSummaries[fn]; ok {
		return s
	}
	n := ip.node(fn)
	if n == nil {
		return nil
	}
	if ip.detBusy[fn] {
		return &detSummary{}
	}
	ip.detBusy[fn] = true
	s := &detSummary{}
	if n.detsafe {
		s.safe = true
	} else if n.decl.Body != nil {
		d := newDetFunc(n.pkg, ip, n.decl)
		d.summary = s
		d.run()
	}
	delete(ip.detBusy, fn)
	ip.detSummaries[fn] = s
	return s
}

func runDetFlow(pass *Pass) {
	ip := pass.pkg.interproc()
	if ip == nil {
		return
	}
	g := ip.graphFor(pass.pkg)
	// Summaries bottom-up first, so intra-package forward calls resolve
	// without hitting the optimistic recursion guard.
	for _, n := range g.bottomUp() {
		ip.detSummaryFor(n.fn)
	}
	for _, n := range g.order {
		if n.detsafe || n.decl.Body == nil {
			continue
		}
		d := newDetFunc(pass.pkg, ip, n.decl)
		d.pass = pass
		d.run()
	}
}

// detFunc is the per-function forward taint interpreter. The body is
// interpreted in source order for a fixed number of passes (so loops
// feed taint back through statements that precede their source), with
// weak updates on assignment and an explicit cleanse for provably-total
// sorts. Exactly one of summary/pass is set: summary mode seeds the
// parameters with symbolic colors and records flows to results and
// sinks; report mode starts parameters clean (call sites account for
// them) and reports tainted values reaching sinks.
type detFunc struct {
	pkg    *Package
	ip     *interproc
	fd     *ast.FuncDecl
	params []types.Object // receiver first, then declared parameters
	vals   map[types.Object]taint

	summary *detSummary
	pass    *Pass

	last bool // final pass: report sinks / record summary flows
}

func newDetFunc(pkg *Package, ip *interproc, fd *ast.FuncDecl) *detFunc {
	d := &detFunc{pkg: pkg, ip: ip, fd: fd, vals: make(map[types.Object]taint)}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					d.params = append(d.params, obj)
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return d
}

func (d *detFunc) run() {
	if d.summary != nil {
		for i, p := range d.params {
			d.vals[p] = paramColor(i)
		}
	}
	const passes = 3
	for i := 0; i < passes; i++ {
		d.last = i == passes-1
		d.interpret()
	}
}

// interpret walks the body once in source order, transferring taint.
func (d *detFunc) interpret() {
	inspectWithStack(d.fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			d.assign(n, stack)
		case *ast.RangeStmt:
			d.rangeStmt(n)
		case *ast.CallExpr:
			d.cleanse(n)
			if d.last {
				d.checkSink(n)
			}
		case *ast.ReturnStmt:
			// Only the outer function's own returns feed the summary: a
			// return inside a nested func literal yields that closure's
			// value, not this function's.
			if d.summary != nil && !insideFuncLit(stack) {
				d.returnStmt(n)
			}
		}
		return true
	})
}

// insideFuncLit reports whether the walk is currently under a func
// literal nested in the function body.
func insideFuncLit(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

func (d *detFunc) obj(id *ast.Ident) types.Object {
	if o := d.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return d.pkg.Info.Defs[id]
}

// lhsRoot resolves the variable ultimately written by an assignment
// target: x, x.f, x[i], *x all root at x. Field and element writes
// weakly taint the whole container.
func (d *detFunc) lhsRoot(e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return d.obj(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func (d *detFunc) assign(a *ast.AssignStmt, stack []ast.Node) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// Multi-value: v, err := f() — every target gets the call's taint.
		t := d.taintOf(a.Rhs[0])
		for _, lhs := range a.Lhs {
			d.taintLhs(lhs, t)
		}
		return
	}
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		t := d.taintOf(a.Rhs[i])
		// Sequence construction under map-visit order: appending to a
		// slice declared outside a map range builds its elements in
		// iteration order, an ORDER effect the value-level union above
		// cannot see. Tainting the target lets a later comparator sort
		// (never cleansing) carry the hazard to a sink — the exact
		// tie-unsoundness hole in maporder's sorted-sink exoneration.
		if call, ok := ast.Unparen(a.Rhs[i]).(*ast.CallExpr); ok {
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
				if obj := d.lhsRoot(lhs); obj != nil && d.inMapRangeOutside(obj, stack) {
					t |= taintMapOrder
				}
			}
		}
		d.taintLhs(lhs, t)
	}
}

// inMapRangeOutside reports whether the current statement sits inside a
// range over a map whose body does not contain obj's declaration (obj
// carries state across iterations, so its construction order tracks
// map-visit order).
func (d *detFunc) inMapRangeOutside(obj types.Object, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		rs, ok := stack[i].(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := d.pkg.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		if obj.Pos() < rs.Body.Pos() || obj.Pos() > rs.Body.End() {
			return true
		}
	}
	return false
}

func (d *detFunc) taintLhs(lhs ast.Expr, t taint) {
	if t == 0 {
		return
	}
	if obj := d.lhsRoot(lhs); obj != nil {
		d.vals[obj] |= t
	}
}

func (d *detFunc) rangeStmt(rs *ast.RangeStmt) {
	base := d.taintOf(rs.X)
	keyT, valT := base, base
	if tv, ok := d.pkg.Info.Types[rs.X]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			keyT |= taintMapOrder
			valT |= taintMapOrder
		case *types.Chan:
			valT |= taintChan
		}
	}
	d.taintLhs(rs.Key, keyT)
	if rs.Value != nil {
		d.taintLhs(rs.Value, valT)
	}
}

func (d *detFunc) returnStmt(r *ast.ReturnStmt) {
	var t taint
	if len(r.Results) == 0 {
		// Naked return: the named results carry whatever they hold.
		if d.fd.Type.Results != nil {
			for _, field := range d.fd.Type.Results.List {
				for _, name := range field.Names {
					if obj := d.pkg.Info.Defs[name]; obj != nil {
						t |= d.vals[obj]
					}
				}
			}
		}
	}
	for _, res := range r.Results {
		t |= d.taintOf(res)
	}
	d.summary.ret |= t & kindMask
	d.summary.retParams |= paramBits(t)
}

// taintOf evaluates the taint of an expression in the current state.
func (d *detFunc) taintOf(e ast.Expr) taint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := d.obj(e); obj != nil {
			return d.vals[obj]
		}
	case *ast.CallExpr:
		return d.callTaint(e)
	case *ast.BinaryExpr:
		return d.taintOf(e.X) | d.taintOf(e.Y)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return taintChan | d.taintOf(e.X)
		}
		return d.taintOf(e.X)
	case *ast.StarExpr:
		return d.taintOf(e.X)
	case *ast.SelectorExpr:
		// Field or method read inherits the container's taint;
		// package-qualified identifiers root at a PkgName, which never
		// carries taint.
		return d.taintOf(e.X)
	case *ast.IndexExpr:
		return d.taintOf(e.X) | d.taintOf(e.Index)
	case *ast.SliceExpr:
		t := d.taintOf(e.X)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				t |= d.taintOf(b)
			}
		}
		return t
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			t |= d.taintOf(el)
		}
		return t
	case *ast.KeyValueExpr:
		return d.taintOf(e.Key) | d.taintOf(e.Value)
	case *ast.TypeAssertExpr:
		return d.taintOf(e.X)
	}
	// Literals, func literals, type expressions: clean.
	return 0
}

// callArgs is the receiver-first argument list of a call, matching the
// parameter indexing of detSummary.
func callArgs(call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return append([]ast.Expr{sel.X}, call.Args...)
	}
	return call.Args
}

func (d *detFunc) callTaint(call *ast.CallExpr) taint {
	fn := staticCallee(d.pkg.Info, call)
	if fn != nil {
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		switch {
		case pkgPath == "time" && bannedTime[fn.Name()]:
			return taintClock
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") &&
			!allowedRand[fn.Name()] && isPackageLevelFunc(fn):
			return taintRand
		case pkgPath == "slices" && fn.Name() == "Sorted":
			// slices.Sorted imposes the element type's total order.
			var t taint
			for _, a := range call.Args {
				t |= d.taintOf(a)
			}
			return t &^ taintMapOrder
		}
		if s := d.ip.detSummaryFor(fn); s != nil {
			if s.safe {
				return 0
			}
			t := s.ret
			args := callArgs(call)
			for i, a := range args {
				if i >= 64 {
					break
				}
				if s.retParams>>uint(i)&1 == 1 {
					t |= d.taintOf(a)
				}
			}
			// A method call still reads its receiver even when the
			// summary proves no parameter flow; the receiver position is
			// argument 0 and already covered above.
			return t
		}
	}
	// Unknown callee (stdlib, builtin, dynamic): taint passes from
	// arguments (and the method receiver) to the result.
	var t taint
	for _, a := range callArgs(call) {
		t |= d.taintOf(a)
	}
	return t
}

// cleanse clears map-order taint from the argument of a provably
// total-order in-place sort. Comparator sorts are deliberately absent:
// their comparison may tie, leaving tied runs in map-visit order.
func (d *detFunc) cleanse(call *ast.CallExpr) {
	fn := staticCallee(d.pkg.Info, call)
	if fn == nil || len(call.Args) == 0 {
		return
	}
	total := isPkgFunc(fn, "sort", "Strings") ||
		isPkgFunc(fn, "sort", "Ints") ||
		isPkgFunc(fn, "sort", "Float64s") ||
		isPkgFunc(fn, "slices", "Sort")
	if !total {
		return
	}
	if obj := d.lhsRoot(call.Args[0]); obj != nil {
		d.vals[obj] &^= taintMapOrder
	}
}

// checkSink reports (or, in summary mode, records) tainted values
// passed to a reproducibility sink.
func (d *detFunc) checkSink(call *ast.CallExpr) {
	args, sink := d.sinkOf(call)
	if sink != "" {
		for _, a := range args {
			t := d.taintOf(a)
			if d.summary != nil {
				d.summary.sinkParams |= paramBits(t)
				continue
			}
			if t&kindMask != 0 {
				d.pass.Reportf(a.Pos(), "value influenced by %s reaches %s; this breaks bit-identical replay — make the source deterministic or annotate the enclosing function //vhlint:detsafe -- <reason>", (t & kindMask).describe(), sink)
			}
		}
		// The call IS the sink; a callee summary would only restate the
		// same flow (obs wrappers forward their arguments to each other).
		return
	}
	// Module-local callees that sink some argument internally.
	fn := staticCallee(d.pkg.Info, call)
	if fn == nil {
		return
	}
	s := d.ip.detSummaryFor(fn)
	if s == nil || s.safe || s.sinkParams == 0 {
		return
	}
	all := callArgs(call)
	for i, a := range all {
		if i >= 64 || s.sinkParams>>uint(i)&1 == 0 {
			continue
		}
		t := d.taintOf(a)
		if d.summary != nil {
			d.summary.sinkParams |= paramBits(t)
			continue
		}
		if t&kindMask != 0 {
			d.pass.Reportf(a.Pos(), "value influenced by %s reaches a trace/output sink inside %s; this breaks bit-identical replay — make the source deterministic or annotate the enclosing function //vhlint:detsafe -- <reason>", (t & kindMask).describe(), fn.Name())
		}
	}
}

// sinkOf classifies a call as a reproducibility sink, returning the
// arguments whose values land in the sink and a human-readable name
// (empty when not a sink).
func (d *detFunc) sinkOf(call *ast.CallExpr) ([]ast.Expr, string) {
	if fn := staticCallee(d.pkg.Info, call); fn != nil && fn.Pkg() != nil {
		path, name := fn.Pkg().Path(), fn.Name()
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		switch {
		case path == "vhadoop/internal/nmon" && name == "Annotate" && isMethod:
			return call.Args, "the nmon event stream (Monitor.Annotate)"
		case path == "vhadoop/internal/jobsvc" && isMethod:
			// The job service's replay surface: tenant names and submission
			// arguments land in the daemon's span events and in the
			// canonical per-tenant report, all byte-compared by the
			// determinism suite.
			switch name {
			case "Register":
				return call.Args, "the job-service tenant report (Service.Register)"
			case "Submit":
				return call.Args, "the job-service event stream (Service.Submit)"
			}
		case path == "vhadoop/internal/obs" && isMethod:
			// The observability plane's exports are part of the replay
			// surface: spans, span attributes and events land in the JSON
			// trace; counter/gauge/histogram updates land in the metrics
			// snapshot. Both must be byte-identical across same-seed runs.
			switch name {
			case "Eventf", "Start", "SetAttr", "SetFloat":
				return call.Args, "the span trace (obs." + name + ")"
			case "Counter", "Gauge", "Histogram", "Add", "Set", "Inc", "Observe":
				return call.Args, "the metrics registry (obs." + name + ")"
			}
		}
		if d.pkg.Types.Name() == "main" {
			switch {
			case path == "fmt" && (name == "Print" || name == "Printf" || name == "Println"):
				return call.Args, "program output"
			case path == "os" && name == "WriteFile":
				return call.Args, "program output (os.WriteFile)"
			}
		}
		return nil, ""
	}
	// Dynamic call through a value of the job-output emit type.
	if tv, ok := d.pkg.Info.Types[call.Fun]; ok && tv.Type != nil {
		if named, ok := tv.Type.(*types.Named); ok {
			obj := named.Obj()
			if obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "vhadoop/internal/mapreduce" && obj.Name() == "Emit" {
				return call.Args, "job output (mapreduce.Emit)"
			}
		}
	}
	return nil, ""
}
