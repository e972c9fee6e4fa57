//go:build !race

package vhadoop_test

// TestBacklogAllocBudget's budgets without the race detector: 2 % above
// the counts, which repeat within a few allocations from run to run.
var (
	mixedBudget   = backlogBudget{allocs: 24_980, bytes: 3_600_000}
	uniformBudget = backlogBudget{allocs: 18_750, bytes: 3_271_000}
)
