package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockFree forbids concurrency machinery in simulator-driven code. The
// engine switches between itself and its processes on iter.Pull
// coroutines, so no site in the tree is sanctioned to coordinate
// goroutines: everything executes single-threaded under the virtual
// clock, which is what makes fixed-seed replay bit-identical. A `go`
// statement, channel, select, mutex, or atomic introduces host-scheduler
// ordering that no seed pins down — and a mutex in single-threaded code
// is at best dead weight, at worst a sign the author believed two things
// run at once.
//
// Flagged: go statements, select, channel types, channel sends and
// receives, range over a channel, and any reference into sync or
// sync/atomic. The tree carries no //vhlint:allow lockfree annotation.
var LockFree = &Analyzer{
	Name:      "lockfree",
	Doc:       "forbid concurrency primitives in simulator-driven code",
	AppliesTo: determinismCritical,
	Run:       runLockFree,
}

func runLockFree(pass *Pass) {
	walkStack(pass, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in simulator-driven code: goroutine completion order is host-scheduler state that no seed reproduces")
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in simulator-driven code: ready-case choice is nondeterministic")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in simulator-driven code: cross-goroutine ordering is not replayable")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in simulator-driven code: cross-goroutine ordering is not replayable")
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.For, "range over a channel in simulator-driven code: delivery order tracks goroutine scheduling")
				}
			}
		case *ast.ChanType:
			pass.Reportf(n.Pos(), "channel type in simulator-driven code: cross-goroutine ordering is not replayable")
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[n.Sel]
			if obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sync", "sync/atomic":
					pass.Reportf(n.Pos(), "%s.%s in simulator-driven code: locks and atomics imply real concurrency, which the single-threaded core must not have", obj.Pkg().Name(), obj.Name())
				}
			}
		}
		return true
	})
}
