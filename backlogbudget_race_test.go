//go:build race

package vhadoop_test

// TestBacklogAllocBudget's budgets under the race detector, whose counts
// move within a band from run to run: about 15 % above the band.
var (
	mixedBudget   = backlogBudget{allocs: 31_300, bytes: 4_270_000}
	uniformBudget = backlogBudget{allocs: 23_900, bytes: 3_870_000}
)
