package lint_test

import (
	"testing"

	"vhadoop/internal/lint"
	"vhadoop/internal/lint/linttest"
)

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "maporder")
}

// TestTreeClean is the lint gate: it runs maporder over every package of
// the module and fails on any finding. It runs in tier-1 and in CI's
// Test and Race steps; scripts/lint.sh runs it alone.
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
		for _, diag := range lint.RunAnalyzer(pkg, lint.MapOrder) {
			t.Errorf("%s", diag)
		}
	}
}
