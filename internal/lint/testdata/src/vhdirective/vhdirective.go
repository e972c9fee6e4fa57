// Package vhdirective exercises the vhdirective analyzer, which
// validates the //vhlint: annotation grammar itself: malformed allows,
// unknown names, retired directives, and allows for analyzers that do
// not run on the package.
package vhdirective

func missingName() {
	//vhlint:allow // want "missing analyzer name"
	_ = 0
}

func missingReason() {
	//vhlint:allow errflow // want "missing '-- <reason>' justification"
	_ = 0
}

func emptyReason() {
	//vhlint:allow errflow -- // want "missing '-- <reason>' justification"
	_ = 0
}

func unknownAnalyzer() {
	//vhlint:allow gofish -- sounds plausible // want "unknown analyzer \"gofish\""
	_ = 0
}

func unknownDirective() {
	//vhlint:suppress errflow -- wrong verb // want "unknown //vhlint: directive \"suppress\""
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

// retiredOwner uses the ownership directive the sharded engine's lint
// stack accepted; with that stack deleted it is an unknown directive.
func retiredOwner() {
	//vhlint:owner machine // want "unknown //vhlint: directive \"owner\""
	_ = 0
}

// retiredHot carries the hot-path marker the retired hotalloc analyzer
// read; allocation gates in the tests replaced it, so it is an unknown
// directive even on a function's doc comment.
//
//vhlint:hot // want "unknown //vhlint: directive \"hot\""
func retiredHot() {}

// retiredDetsafe carries the marker that exempted a function from the
// retired detflow analyzer; with detflow gone it is an unknown directive
// even on a function's doc comment.
//
//vhlint:detsafe -- test fixture: was a hand-argued exemption // want "unknown //vhlint: directive \"detsafe\""
func retiredDetsafe() {}
