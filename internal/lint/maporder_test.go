package lint_test

import (
	"testing"

	"vhadoop/internal/lint"
	"vhadoop/internal/lint/linttest"
)

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "maporder")
}
