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

// TestTreeClean is the lint gate: it runs every analyzer over every
// package of the module and fails on any active finding. A stale allow
// is an active finding, so the tree is clean only when every finding is
// fixed or carries a justified allow that still suppresses something.
// It runs in tier-1 and in CI's Test and Race steps; scripts/lint.sh
// runs it alone.
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
	want := "maporder,errflow,vhdirective"
	if got != want {
		t.Errorf("AnalyzerNames() = %q, want %q", got, want)
	}
}
