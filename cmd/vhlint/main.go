// Command vhlint runs vhadoop's custom static-analysis suite over the
// repository. It is the project's equivalent of a go/analysis
// multichecker driver, built on the standard library only, and prints
// diagnostics in go vet's file:line:col format so editors and CI parse
// them the same way.
//
// Usage:
//
//	go run ./cmd/vhlint [-list] [-json] [packages...]
//
// Patterns follow go tooling conventions: "./..." (the default) walks
// every package under the current module; "./internal/sim" names one
// package. The exit status is 0 when the tree is clean, 1 when any
// analyzer reports an active diagnostic, and 2 on a load or usage
// error, so CI can gate on it directly.
//
// -json emits one JSON object per line (file/line/column/analyzer/
// message/suppressed) instead of the vet format. The stream is an audit
// view: findings silenced by //vhlint:allow annotations appear with
// "suppressed": true, but only active findings count toward the exit
// status.
//
// The analyzers (listed by -list) are maporder, simclock, errflow,
// lockfree and vhdirective; see package internal/lint for what each
// enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vhadoop/internal/lint"
)

// jsonDiag is the one-line-per-finding schema -json emits.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding, including suppressed ones")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vhlint [-list] [-json] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	dirs, err := lint.Expand(wd, flag.Args())
	if err != nil {
		fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	nDiags := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, "")
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			for _, d := range lint.RunAllDiagnostics(pkg) {
				if !d.Suppressed {
					nDiags++
				}
				if err := enc.Encode(jsonDiag{
					File:       relFile(wd, d.Pos.Filename),
					Line:       d.Pos.Line,
					Column:     d.Pos.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				}); err != nil {
					fatal(err)
				}
			}
			continue
		}
		for _, d := range lint.RunAll(pkg) {
			nDiags++
			fmt.Printf("%s: %s: %s\n", relPos(wd, d), d.Analyzer, d.Message)
		}
	}
	if nDiags > 0 {
		fmt.Fprintf(os.Stderr, "vhlint: %d diagnostic(s)\n", nDiags)
		os.Exit(1)
	}
}

func relFile(wd, filename string) string {
	//vhlint:allow errflow -- display-only: an unrelatable filename is printed absolute, which is still a correct position
	if rel, err := filepath.Rel(wd, filename); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return filename
}

func relPos(wd string, d lint.Diagnostic) string {
	p := d.Pos
	p.Filename = relFile(wd, p.Filename)
	return p.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vhlint:", err)
	os.Exit(2)
}
