package vhadoop_test

import (
	"fmt"
	"testing"

	"vhadoop/internal/difftest"
)

// digest is one labelled artifact of a run: its name ("trace", "output",
// "metrics", ...) and its exact bytes.
type digest struct {
	Name string
	Data string
}

// requireIdentical asserts that every got artifact matches its want
// counterpart byte for byte. Artifacts are matched by Name; a name present
// on one side only is itself a failure. Same-seed runs must be
// byte-identical, so there are no tolerances.
func requireIdentical(t *testing.T, label string, want, got []digest) {
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
		if line, wl, gl, diff := difftest.FirstDiff(w.Data, g); diff {
			t.Errorf("%s: artifact %q diverges at line %d\n  want: %s\n  got:  %s\n  (fingerprints %s vs %s, %d vs %d bytes)",
				label, w.Name, line, clip(wl), clip(gl),
				fingerprint(w.Data), fingerprint(g), len(w.Data), len(g))
		}
	}
	for _, d := range got {
		if !seen[d.Name] {
			t.Errorf("%s: artifact %q present only in the got run", label, d.Name)
		}
	}
}

// fingerprint returns a short stable FNV-1a fingerprint of s, for failure
// messages where quoting the whole artifact would be noise.
func fingerprint(s string) string {
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

// clip bounds one reported line so a failure message stays readable.
func clip(s string) string {
	const max = 220
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
