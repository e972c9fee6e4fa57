// Package lint is vhadoop's custom static-analysis suite (vhlint).
// Fixed-seed runs must be bit-identical. The runtime guards (the rerun
// determinism tests, the goldens, -race and CI's double-run output
// diffs) catch a nondeterminism source only on the paths they run, and
// only when it fires there. vhlint keeps the analyzers that catch what
// those guards miss: an analyzer stays only if a recorded mutant shows
// such a catch (DESIGN.md §8). maporder is the one that does.
//
// The suite is deliberately self-contained: it is built only on the
// standard library (go/ast, go/types, go/build), mirroring the shape of
// a golang.org/x/tools go/analysis multichecker without depending on
// it. TestTreeClean is the one entry point: it runs maporder on every
// package of the module. The analyzer lives in its own file here with
// an analysistest-style suite under testdata/src.
//
// maporder flags a range over a map (or maps.Keys, Values or All)
// unless the loop is provably order-insensitive; only a total sort
// makes collected keys order-free. A finding is fixed by sorting or by
// keeping an ordered slice; there is no suppression comment.
//
// What values reach the replay-compared outputs (span trace, metrics,
// reports, program output) is not traced statically: the rerun
// determinism tests diff those outputs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one active analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer runs a on pkg and returns its diagnostics in file/line
// order.
func RunAnalyzer(pkg *Package, a *Analyzer) []Diagnostic {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		TypesInfo: pkg.Info,
	}
	a.Run(pass)
	sort.SliceStable(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags
}
