package lint_test

import (
	"strings"
	"testing"

	"vhadoop/internal/lint"
	"vhadoop/internal/lint/linttest"
)

func TestDirectives(t *testing.T) {
	linttest.Run(t, lint.Directives, "vhdirective")
}

// TestTreeClean runs the full suite over the real repository tree, the
// same invocation CI performs via cmd/vhlint: the tree must be clean,
// meaning every remaining map range is provably order-insensitive or
// carries a justified, non-stale allow.
func TestTreeClean(t *testing.T) {
	loader := linttest.Loader(t)
	dirs, err := lint.Expand(loader.RepoRoot, []string{"./..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d, "")
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		for _, diag := range lint.RunAll(pkg) {
			t.Errorf("%s", diag)
		}
	}
}

// TestAnalyzerNames pins the annotation vocabulary: a rename here breaks
// every //vhlint:allow in the tree, so it must be deliberate.
func TestAnalyzerNames(t *testing.T) {
	got := strings.Join(lint.AnalyzerNames(), ",")
	want := "maporder,simclock,errflow,lockfree,vhdirective"
	if got != want {
		t.Errorf("AnalyzerNames() = %q, want %q", got, want)
	}
}
