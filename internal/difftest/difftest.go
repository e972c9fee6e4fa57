// Package difftest holds the line-level differ of the exact-diff checks:
// FirstDiff reports where two artifacts (a trace, a snapshot, a figure's
// rows) first diverge. Same-seed runs must be byte-identical, so the
// comparison is exact string equality — there are no tolerances.
package difftest

import "strings"

// FirstDiff locates the first line where want and got differ. ok is false
// when the strings are identical.
func FirstDiff(want, got string) (line int, wantLine, gotLine string, ok bool) {
	if want == got {
		return 0, "", "", false
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return i + 1, wl[i], gl[i], true
		}
	}
	// One is a prefix of the other; report the first extra line.
	if len(wl) < len(gl) {
		return len(wl) + 1, "<end of want artifact>", gl[len(wl)], true
	}
	return len(gl) + 1, wl[len(gl)], "<end of got artifact>", true
}
