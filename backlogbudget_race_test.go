//go:build race

package vhadoop_test

// TestBacklogAllocBudget's budgets under the race detector, whose counts
// move within a band from run to run: about 5 % above the band.
var (
	mixedBudget   = backlogBudget{allocs: 26_550, bytes: 3_830_000}
	uniformBudget = backlogBudget{allocs: 19_760, bytes: 3_470_000}
)
