// Package difftest is the exact-diff reporter the determinism suites share:
// it compares the complete artifact set of two runs (trace, observability
// snapshot, job output, end time, ...) and reports the first divergence
// precisely.
//
// Same-seed runs must be byte-identical, so every comparison here is exact
// string equality — there are no tolerances.
package difftest

import (
	"fmt"
	"strings"
)

// TB is the subset of testing.TB the reporter needs. Taking an interface
// keeps the package importable outside test binaries (experiment drivers
// can run differential checks too) and keeps it free of the testing
// package's concurrency machinery.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Digest is one labelled artifact of a run: its name ("trace", "output",
// "metrics", ...) and its exact bytes.
type Digest struct {
	Name string
	Data string
}

// Fingerprint returns a short stable FNV-1a fingerprint of s, for log
// lines where quoting the whole artifact would be noise.
func Fingerprint(s string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

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

// RequireIdentical asserts that every got artifact matches its want
// counterpart byte for byte. Artifacts are matched by Name; a name present
// on one side only is itself a failure.
func RequireIdentical(t TB, label string, want, got []Digest) {
	t.Helper()
	gotBy := make(map[string]string, len(got))
	for _, d := range got {
		gotBy[d.Name] = d.Data
	}
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		seen[w.Name] = true
		g, found := gotBy[w.Name]
		if !found {
			t.Errorf("%s: artifact %q missing from the got run", label, w.Name)
			continue
		}
		if line, wl, gl, diff := FirstDiff(w.Data, g); diff {
			t.Errorf("%s: artifact %q diverges at line %d\n  want: %s\n  got:  %s\n  (fingerprints %s vs %s, %d vs %d bytes)",
				label, w.Name, line, clip(wl), clip(gl),
				Fingerprint(w.Data), Fingerprint(g), len(w.Data), len(g))
		}
	}
	for _, d := range got {
		if !seen[d.Name] {
			t.Errorf("%s: artifact %q present only in the got run", label, d.Name)
		}
	}
}

// clip bounds one reported line so a failure message stays readable.
func clip(s string) string {
	const max = 220
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
