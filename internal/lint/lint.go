// Package lint is vhadoop's custom static-analysis suite (vhlint).
// Fixed-seed runs must be bit-identical. The runtime guards (the rerun
// determinism tests, the goldens, -race and CI's double-run output
// diffs) catch a nondeterminism source only on the paths they run, and
// only when it fires there. vhlint keeps the analyzers that catch what
// those guards miss: an analyzer stays only if a recorded mutant shows
// such a catch (DESIGN.md §8).
//
// The suite is deliberately self-contained: it is built only on the
// standard library (go/ast, go/types, go/build), mirroring the shape of
// a golang.org/x/tools go/analysis multichecker without depending on
// it. TestTreeClean is the one entry point: it runs every analyzer on
// every package of the module. Each analyzer lives in its own file here
// with an analysistest-style suite under testdata/src.
//
// Analyzers:
//
//   - maporder:   range over a map (or maps.Keys/Values/All), unless
//     provably order-insensitive; only a total sort makes collected
//     keys order-free.
//   - errflow:    error values that are produced and then dropped
//     (checked but never returned, traced, stored or passed on) or
//     overwritten unexamined — the failure mode that silently loses
//     recovery-path faults. Call-graph function summaries let it skip
//     callees that can never fail.
//   - vhdirective: malformed or unknown //vhlint: annotations.
//
// Suppression uses source annotations, validated by the suite itself:
//
//	//vhlint:allow <analyzer> -- <reason>
//
// on the flagged line or the line directly above. A malformed allow (no
// reason) is itself a diagnostic, and an allow that suppresses nothing
// is reported as stale.
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

	pkg        *Package // carries the loader back-pointer for interprocedural queries
	directives []*Directive
	diags      []Diagnostic
}

// Reportf records a diagnostic at pos. Suppression by //vhlint:allow
// annotations is applied after the analyzer finishes.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// all is every analyzer in the suite, in reporting order.
var all = []*Analyzer{MapOrder, ErrFlow, Directives}

// AnalyzerNames returns the names accepted in //vhlint:allow annotations.
func AnalyzerNames() []string {
	var names []string
	for _, a := range all {
		names = append(names, a.Name)
	}
	return names
}

// RunAnalyzer runs a on pkg: the analyzer's Run produces raw
// diagnostics, //vhlint:allow annotations for a.Name drop the ones they
// cover, and any allow that suppressed nothing is reported as stale.
func RunAnalyzer(pkg *Package, a *Analyzer) []Diagnostic {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		TypesInfo:  pkg.Info,
		pkg:        pkg,
		directives: pkg.Directives(),
	}
	a.Run(pass)

	// An allow for this analyzer on the diagnostic's line, or the line
	// directly above it, suppresses the diagnostic and marks the allow
	// used.
	allows := make([]*Directive, 0, 4)
	for _, d := range pass.directives {
		if d.Kind == DirectiveAllow && d.Analyzer == a.Name {
			allows = append(allows, d)
		}
	}
	var out []Diagnostic
	for _, diag := range pass.diags {
		suppressed := false
		for _, al := range allows {
			if al.Pos.Filename == diag.Pos.Filename &&
				(al.Pos.Line == diag.Pos.Line || al.Pos.Line == diag.Pos.Line-1) {
				al.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	for _, al := range allows {
		if !al.used {
			out = append(out, Diagnostic{
				Pos:      al.Pos,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("stale //vhlint:allow %s annotation: it suppresses nothing", a.Name),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// RunAll runs every analyzer on pkg and returns the combined active
// diagnostics in file/line order.
func RunAll(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range all {
		out = append(out, RunAnalyzer(pkg, a)...)
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
