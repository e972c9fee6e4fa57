// Package linttest is a stdlib-only analogue of go/analysis/analysistest:
// it loads a testdata package, runs one vhlint analyzer over it, and
// checks the diagnostics against // want "regexp" comments.
//
// Expectations sit on the line they apply to:
//
//	for k := range m { // want "iteration order"
//
// A line may carry several expectations (// want "a" "b"); every
// diagnostic must match exactly one unconsumed expectation on its line,
// and every expectation must be consumed, or the test fails.
package linttest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vhadoop/internal/lint"
)

// want is one expectation: a regexp at a file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// shared is the loader of the test binary, rooted at the test's working
// directory.
var shared *lint.Loader

// Loader returns the one loader a lint test binary shares, built on first
// use, so the standard library and the tree are type-checked once per
// binary rather than once per test. Tests using it must not run in
// parallel: the loader's caches are not synchronised.
func Loader(t *testing.T) *lint.Loader {
	t.Helper()
	if shared == nil {
		loader, err := lint.NewLoader(".")
		if err != nil {
			t.Fatalf("loader: %v", err)
		}
		shared = loader
	}
	return shared
}

// Run loads testdata/src/<pkg> (relative to the test's working
// directory) and checks analyzer a against its // want comments.
func Run(t *testing.T, a *lint.Analyzer, pkg string) {
	t.Helper()
	loader := Loader(t)
	dir := filepath.Join("testdata", "src", pkg)
	p, err := loader.LoadDir(dir, "test/"+pkg)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := collectWants(t, p)
	for _, d := range lint.RunAnalyzer(p, a) {
		if !consume(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func consume(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE matches each quoted expectation after a "// want" marker.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, p *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, p, c)...)
			}
		}
	}
	return wants
}

func parseWants(t *testing.T, p *lint.Package, c *ast.Comment) []*want {
	t.Helper()
	_, rest, found := strings.Cut(c.Text, "// want ")
	if !found {
		if _, rest, found = strings.Cut(c.Text, "//want "); !found {
			return nil
		}
	}
	pos := p.Fset.Position(c.Pos())
	var wants []*want
	for _, q := range wantRE.FindAllString(rest, -1) {
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
		}
		wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	if len(wants) == 0 {
		t.Fatalf("%s:%d: // want marker with no quoted pattern", pos.Filename, pos.Line)
	}
	return wants
}
