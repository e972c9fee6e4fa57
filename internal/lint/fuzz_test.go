package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
	"unicode/utf8"

	"vhadoop/internal/lint"
)

// directiveSrc is a package with one order-leaking map range (leak) and
// one order-free one (count). Every DIRECTIVE marker sits in a line
// comment, so substituting it never moves a line or column.
const directiveSrc = `package fuzzdirective //DIRECTIVE

//DIRECTIVE
func leak(m map[string]int) []string {
	var keys []string
	for k := range m { //DIRECTIVE
		keys = append(keys, k)
	}
	return keys //DIRECTIVE
}

//DIRECTIVE
func count(m map[string]int) int {
	n := 0
	for range m { //DIRECTIVE
		n++
	}
	return n
}
`

// leakLine is the line of leak's range statement in directiveSrc.
const leakLine = 6

// FuzzDirective pins that maporder has no suppression comment. vhlint
// once parsed directives, line comments whose text began "vhlint:", and
// an allow silenced a finding. That grammar is retired, so any such
// comment (the allow, owner, hot and detsafe forms the old parser saw,
// or arbitrary text) must leave maporder's findings exactly as they are
// without it: leak's range is still flagged, count's range still is not.
func FuzzDirective(f *testing.F) {
	seeds := []string{
		"",
		"hot",
		"hot trailing",
		"allow",
		"allow maporder",
		"allow maporder -- sorted immediately after",
		"allow maporder--no space",
		"allow bogus -- reason",
		"allow errflow -- multi -- dash reason",
		"allow  errflow  --  generously  spaced ",
		"detsafe",
		"detsafe --",
		"detsafe -- keys are interned and unique",
		"owner",
		"owner machine",
		"owner shared",
		"owner cloud",
		"owner machine vnet",
		"owner  engine",
		"unknown words here",
		"allow\terrflow\t--\ttabbed",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	want := mapOrderFindings(f, strings.ReplaceAll(directiveSrc, "DIRECTIVE", ""))
	if len(want) != 1 || want[0].Pos.Line != leakLine {
		f.Fatalf("uncommented source: findings %v, want one at line %d", want, leakLine)
	}
	f.Fuzz(func(t *testing.T, payload string) {
		comment := "vhlint:" + commentText(payload)
		got := mapOrderFindings(t, strings.ReplaceAll(directiveSrc, "DIRECTIVE", comment))
		if len(got) != len(want) {
			t.Fatalf("comment %q: findings %v, want %v", comment, got, want)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Pos.Line != w.Pos.Line || g.Pos.Column != w.Pos.Column || g.Message != w.Message {
				t.Errorf("comment %q: finding %v, want %v", comment, g, w)
			}
		}
	})
}

// commentText maps s onto text a line comment can hold: the scanner
// rejects newlines (they end the comment), NUL, byte-order marks and
// invalid UTF-8 inside one.
func commentText(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '\n', '\r', 0, '\uFEFF', utf8.RuneError:
			return ' '
		}
		return r
	}, strings.ToValidUTF8(s, " "))
}

// mapOrderFindings type-checks src as a one-file package and returns
// maporder's findings on it.
func mapOrderFindings(tb testing.TB, src string) []lint.Diagnostic {
	tb.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fuzzdirective.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	files := []*ast.File{file}
	tpkg, err := new(types.Config).Check("test/fuzzdirective", fset, files, info)
	if err != nil {
		tb.Fatalf("type-check: %v", err)
	}
	pkg := &lint.Package{Path: tpkg.Path(), Fset: fset, Files: files, Types: tpkg, Info: info}
	return lint.RunAnalyzer(pkg, lint.MapOrder)
}
