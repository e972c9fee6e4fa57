package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive kinds.
const (
	DirectiveAllow = "allow" // //vhlint:allow <analyzer> -- <reason>
	DirectiveBad   = "bad"   // malformed; Err explains why
)

// Directive is one parsed //vhlint: source annotation.
type Directive struct {
	Pos      token.Position
	TokPos   token.Pos
	Kind     string
	Analyzer string // for allow
	Reason   string // for allow
	Err      string // for bad
	used     bool   // allow suppressed at least one diagnostic
}

// parseDirectives extracts every //vhlint: comment from files. Malformed
// directives are returned with Kind=DirectiveBad rather than dropped, so
// the vhdirective analyzer can report them.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*Directive {
	var out []*Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//vhlint:")
				if !ok {
					continue
				}
				// Testdata convenience: a trailing "// want ..." expectation
				// on the same physical line is not part of the directive.
				if i := strings.Index(text, "// want"); i >= 0 {
					text = text[:i]
				}
				d := parseDirective(strings.TrimRight(text, " \t"))
				d.TokPos = c.Pos()
				d.Pos = fset.Position(c.Pos())
				out = append(out, d)
			}
		}
	}
	return out
}

func parseDirective(text string) *Directive {
	switch {
	case text == "allow" || strings.HasPrefix(text, "allow "):
		rest := strings.TrimSpace(strings.TrimPrefix(text, "allow"))
		name, reason, found := strings.Cut(rest, "--")
		name = strings.TrimSpace(name)
		reason = strings.TrimSpace(reason)
		if name == "" {
			return &Directive{Kind: DirectiveBad, Err: "malformed //vhlint:allow: missing analyzer name"}
		}
		if !knownAnalyzer(name) {
			return &Directive{Kind: DirectiveBad, Err: fmt.Sprintf("//vhlint:allow names unknown analyzer %q (known: %s)", name, strings.Join(AnalyzerNames(), ", "))}
		}
		if !found || reason == "" {
			return &Directive{Kind: DirectiveBad, Err: fmt.Sprintf("malformed //vhlint:allow %s: missing '-- <reason>' justification", name)}
		}
		return &Directive{Kind: DirectiveAllow, Analyzer: name, Reason: reason}
	default:
		word := text
		if i := strings.IndexAny(word, " \t"); i >= 0 {
			word = word[:i]
		}
		return &Directive{Kind: DirectiveBad, Err: fmt.Sprintf("unknown //vhlint: directive %q (known: allow)", word)}
	}
}

func knownAnalyzer(name string) bool {
	for _, n := range AnalyzerNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Directives reports malformed or unknown //vhlint: annotations and
// allow annotations for analyzers that do not run on the package (those
// would otherwise silently never match anything).
var Directives = &Analyzer{
	Name: "vhdirective",
	Doc:  "validate //vhlint: source annotations",
	Run:  runDirectives,
}

func runDirectives(pass *Pass) {
	for _, d := range pass.directives {
		switch d.Kind {
		case DirectiveBad:
			pass.Reportf(d.TokPos, "%s", d.Err)
		case DirectiveAllow:
			for _, a := range All() {
				if a.Name == d.Analyzer && a.AppliesTo != nil && !a.AppliesTo(pass.PkgPath) {
					pass.Reportf(d.TokPos, "//vhlint:allow %s in package %s, where %s does not run", d.Analyzer, pass.PkgPath, d.Analyzer)
				}
			}
		}
	}
}
