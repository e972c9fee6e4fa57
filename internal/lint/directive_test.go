// Package lint holds no code, only tests that keep the tree free of
// vhlint directives. vhlint, the static analyzer that read line comments
// beginning "vhlint:", is retired: determinism is guarded at run time
// (DESIGN.md §8). A directive left in the source, an allow above all,
// would claim an exemption that no gate honours, so none may stay.
package lint

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// directivePrefix starts the text of every comment the retired analyzer
// read as a directive.
const directivePrefix = "//vhlint:"

// directiveLines returns the lines of src's line comments that begin
// with directivePrefix, in source order. A string literal holding the
// same text is not a comment and is not reported.
func directiveLines(tb testing.TB, name string, src []byte) []int {
	tb.Helper()
	fset := token.NewFileSet()
	file := fset.AddFile(name, fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, func(pos token.Position, msg string) {
		tb.Fatalf("%s: %s", pos, msg)
	}, scanner.ScanComments)
	var lines []int
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return lines
		}
		if tok == token.COMMENT && strings.HasPrefix(lit, directivePrefix) {
			lines = append(lines, fset.Position(pos).Line)
		}
	}
}

// TestTreeHasNoDirectives scans every Go file of the repository, bench/
// included, for a vhlint directive.
func TestTreeHasNoDirectives(t *testing.T) {
	root := filepath.Join("..", "..")
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, line := range directiveLines(t, path, src) {
			t.Errorf("%s:%d: vhlint directive; nothing reads it since vhlint was retired", path, line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("scanned %d Go files under %s, want the whole tree", files, root)
	}
}

// directiveSrc carries a DIRECTIVE marker in six line comments and in
// one raw string literal. Substituting the marker never moves a line.
const directiveSrc = "package fuzzdirective //DIRECTIVE\n" +
	"\n" +
	"//DIRECTIVE\n" +
	"func leak(m map[string]int) []string {\n" +
	"\tvar keys []string\n" +
	"\tfor k := range m { //DIRECTIVE\n" +
	"\t\tkeys = append(keys, k)\n" +
	"\t}\n" +
	"\treturn keys //DIRECTIVE\n" +
	"}\n" +
	"\n" +
	"//DIRECTIVE\n" +
	"func count(m map[string]int) int {\n" +
	"\tn := 0\n" +
	"\tfor range m { //DIRECTIVE\n" +
	"\t\tn++\n" +
	"\t}\n" +
	"\treturn n\n" +
	"}\n" +
	"\n" +
	"var quoted = `//DIRECTIVE`\n"

// directiveSrcLines are the lines of directiveSrc's marked comments.
var directiveSrcLines = []int{1, 3, 6, 9, 12, 15}

// FuzzDirective pins directiveLines, TestTreeHasNoDirectives' finder:
// whatever text follows "vhlint:" (the allow, owner, hot and detsafe
// forms the retired analyzer parsed once, or arbitrary text), every
// such line comment is found, and the same text in a string literal is
// not.
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
	if got := directiveLines(f, "plain.go", []byte(strings.ReplaceAll(directiveSrc, "DIRECTIVE", "plain"))); got != nil {
		f.Fatalf("source without directives: found lines %v", got)
	}
	f.Fuzz(func(t *testing.T, payload string) {
		directive := "vhlint:" + commentText(payload)
		src := strings.ReplaceAll(directiveSrc, "DIRECTIVE", directive)
		if got := directiveLines(t, "fuzzdirective.go", []byte(src)); !reflect.DeepEqual(got, directiveSrcLines) {
			t.Fatalf("directive %q: found lines %v, want %v", directive, got, directiveSrcLines)
		}
	})
}

// commentText maps s onto text that both a line comment and a raw string
// literal can hold: the scanner rejects newlines (they end the comment),
// NUL, byte-order marks and invalid UTF-8 inside either, and a backquote
// ends the raw string.
func commentText(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '\n', '\r', 0, '\uFEFF', utf8.RuneError, '`':
			return ' '
		}
		return r
	}, strings.ToValidUTF8(s, " "))
}
