package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// interproc is the cross-package analysis state of the interprocedural
// analyzer (errflow). It hangs off the Loader so call-graph nodes and
// function summaries are computed once per process no matter how many
// packages are analyzed — total work stays linear in the number of
// loaded packages, not quadratic in the number of analyzer runs that
// consult them.
type interproc struct {
	l     *Loader
	pkgOf map[*types.Package]*Package // reverse index over the loader cache

	graphs map[*Package]*callGraph

	errSummaries map[*types.Func]*errSummary
	errBusy      map[*types.Func]bool
}

// interproc returns the cross-package state of the loader that produced
// p, creating it on first use.
func (p *Package) interproc() *interproc {
	if p.loader == nil {
		return nil
	}
	if p.loader.ip == nil {
		p.loader.ip = &interproc{
			l:            p.loader,
			pkgOf:        make(map[*types.Package]*Package),
			graphs:       make(map[*Package]*callGraph),
			errSummaries: make(map[*types.Func]*errSummary),
			errBusy:      make(map[*types.Func]bool),
		}
	}
	return p.loader.ip
}

// packageFor maps a type-checker package back to its loaded source
// package, or nil for packages without module-local source (stdlib).
func (ip *interproc) packageFor(tp *types.Package) *Package {
	if p, ok := ip.pkgOf[tp]; ok {
		return p
	}
	// Refresh from the loader cache: type-checking routes module-local
	// imports through LoadDir, so every package whose source we can
	// analyze is already cached there.
	dirs := make([]string, 0, len(ip.l.byDir))
	for dir := range ip.l.byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		p := ip.l.byDir[dir]
		ip.pkgOf[p.Types] = p
	}
	p := ip.pkgOf[tp]
	if p == nil {
		ip.pkgOf[tp] = nil // memoize the miss so stdlib lookups stay O(1)
	}
	return p
}

// callGraph is one package's static call graph: a node per function or
// method declaration, with call sites resolved through the type
// checker. Nodes appear in declaration order (files are loaded sorted
// by name), so every traversal is deterministic.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	order []*cgNode
}

// cgNode is one declared function or method.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// graphFor builds (once) and returns the call graph of pkg.
func (ip *interproc) graphFor(pkg *Package) *callGraph {
	if g, ok := ip.graphs[pkg]; ok {
		return g
	}
	g := &callGraph{nodes: make(map[*types.Func]*cgNode)}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{fn: fn, decl: fd, pkg: pkg}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	ip.graphs[pkg] = g
	return g
}

// node resolves fn to its call-graph node, loading and indexing the
// defining package on demand. nil for functions without module-local
// source (stdlib, interface methods, builtins).
func (ip *interproc) node(fn *types.Func) *cgNode {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pkg := ip.packageFor(fn.Pkg())
	if pkg == nil {
		return nil
	}
	return ip.graphFor(pkg).nodes[fn]
}

// staticCallee resolves the called function or method of a call
// expression through the type info, or nil for dynamic calls (closure
// values, function-typed variables, conversions) and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
