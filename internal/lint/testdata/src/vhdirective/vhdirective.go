// Package vhdirective exercises the vhdirective analyzer, which
// validates the //vhlint: annotation grammar itself: malformed allows,
// unknown names, misplaced hot markers, and allows for analyzers that
// do not run on the package.
package vhdirective

// hotAttached is correctly annotated: the marker sits in the doc
// comment of a function declaration.
//
//vhlint:hot
func hotAttached(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func misplacedHot() {
	//vhlint:hot // want "not attached to a function declaration"
	_ = 0
}

// hotOnVar hangs the marker on a variable declaration instead of a
// function.
//
//vhlint:hot // want "not attached to a function declaration"
var hotOnVar = 42

func missingName() {
	//vhlint:allow // want "missing analyzer name"
	_ = 0
}

func missingReason() {
	//vhlint:allow hotalloc // want "missing '-- <reason>' justification"
	_ = 0
}

func emptyReason() {
	//vhlint:allow hotalloc -- // want "missing '-- <reason>' justification"
	_ = 0
}

func unknownAnalyzer() {
	//vhlint:allow gofish -- sounds plausible // want "unknown analyzer \"gofish\""
	_ = 0
}

func unknownDirective() {
	//vhlint:suppress hotalloc -- wrong verb // want "unknown //vhlint: directive \"suppress\""
	_ = 0
}

// outOfScope allows maporder here, but maporder only runs on vhadoop's
// determinism-critical packages — never on this testdata package — so
// the allow could never suppress anything.
func outOfScope(m map[string]int) int {
	n := 0
	//vhlint:allow maporder -- test fixture: can never apply here // want "where maporder does not run"
	for _, v := range m {
		n += v
	}
	return n
}

// wellFormed is a grammatically valid allow for an analyzer that runs
// everywhere; vhdirective has nothing to say about it (staleness is the
// target analyzer's job, not the grammar checker's).
func wellFormed(xs []int) int {
	n := 0
	//vhlint:allow hotalloc -- test fixture: grammar-valid allow, checked elsewhere
	for _, x := range xs {
		n += x
	}
	return n
}

// retiredOwner uses the ownership directive the sharded engine's lint
// stack accepted; with that stack deleted it is an unknown directive.
func retiredOwner() {
	//vhlint:owner machine // want "unknown //vhlint: directive \"owner\""
	_ = 0
}
