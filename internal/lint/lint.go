// Package lint is vhadoop's custom static-analysis suite (vhlint). It
// mechanically enforces the invariants the simulator's reproducibility
// claims rest on: fixed-seed runs must be bit-identical. The data-plane
// fast paths' zero-allocation rule is not linted; testing.AllocsPerRun
// gates next to each package's kernels measure it.
//
// The suite is deliberately self-contained: it is built only on the
// standard library (go/ast, go/types, go/build), mirroring the shape of
// a golang.org/x/tools go/analysis multichecker without depending on
// it. cmd/vhlint is the driver; each analyzer lives in its own file
// here with an analysistest-style suite under testdata/src.
//
// Analyzers:
//
//   - maporder:   range over a map (or maps.Keys/Values/All) in
//     determinism-critical packages, unless provably order-insensitive;
//     only a total sort makes collected keys order-free.
//   - simclock:   wall-clock time, global math/rand and crypto/rand in
//     simulator-driven code; the sim.Engine clock and Engine.Rand() are
//     the only legal sources.
//   - errflow:    error values that are produced and then dropped
//     (checked but never returned, traced, stored or passed on) or
//     overwritten unexamined — the failure mode that silently loses
//     recovery-path faults. Call-graph function summaries let it skip
//     callees that can never fail.
//   - lockfree:   goroutines, channels, select and sync primitives in
//     simulator-driven code; no site is sanctioned, because the engine
//     switches to its processes on coroutines.
//   - vhdirective: malformed, unknown or out-of-scope //vhlint:
//     annotations.
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
// determinism tests diff those outputs, and the analyzers above ban the
// sources they could come from.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding. Suppressed marks findings silenced
// by a //vhlint:allow annotation; they are filtered from the default
// output but surfaced by cmd/vhlint -json for audit.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path; nil means every package.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

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

// all is populated in init to break the initialization cycle between
// the Directives analyzer and the registry it validates names against.
var all []*Analyzer

func init() {
	all = []*Analyzer{MapOrder, SimClock, ErrFlow, LockFree, Directives}
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer { return all }

// AnalyzerNames returns the names accepted in //vhlint:allow annotations.
func AnalyzerNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// RunAnalyzer runs a on pkg: the analyzer's Run produces raw
// diagnostics, //vhlint:allow annotations for a.Name filter them, and
// any allow that suppressed nothing is reported as stale. The caller is
// responsible for honouring a.AppliesTo.
func RunAnalyzer(pkg *Package, a *Analyzer) []Diagnostic {
	var kept []Diagnostic
	for _, d := range runAnalyzer(pkg, a) {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// runAnalyzer is RunAnalyzer keeping suppressed diagnostics, marked.
func runAnalyzer(pkg *Package, a *Analyzer) []Diagnostic {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		PkgPath:    pkg.Path,
		pkg:        pkg,
		directives: pkg.Directives(),
	}
	a.Run(pass)

	// Apply allow annotations: an allow for this analyzer on the
	// diagnostic's line, or the line directly above it, suppresses the
	// diagnostic and marks the allow used.
	allows := make([]*Directive, 0, 4)
	for _, d := range pass.directives {
		if d.Kind == DirectiveAllow && d.Analyzer == a.Name {
			allows = append(allows, d)
		}
	}
	out := pass.diags
	for i, diag := range out {
		for _, al := range allows {
			if al.Pos.Filename == diag.Pos.Filename &&
				(al.Pos.Line == diag.Pos.Line || al.Pos.Line == diag.Pos.Line-1) {
				al.used = true
				out[i].Suppressed = true
			}
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

// RunAll runs every applicable analyzer on pkg and returns the combined
// active diagnostics in file/line order.
func RunAll(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range All() {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		out = append(out, RunAnalyzer(pkg, a)...)
	}
	sortDiagnostics(out)
	return out
}

// RunAllDiagnostics is RunAll including suppressed diagnostics, each
// marked with Suppressed=true — the audit view cmd/vhlint -json emits.
func RunAllDiagnostics(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, a := range All() {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		out = append(out, runAnalyzer(pkg, a)...)
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
