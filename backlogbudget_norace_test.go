//go:build !race

package vhadoop_test

// TestBacklogAllocBudget's budgets without the race detector: 2 % above
// the counts, which repeat within a few allocations from run to run.
var (
	mixedBudget   = backlogBudget{allocs: 24_550, bytes: 3_593_000}
	uniformBudget = backlogBudget{allocs: 18_180, bytes: 3_267_000}
)
