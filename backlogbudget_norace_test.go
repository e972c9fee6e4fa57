//go:build !race

package vhadoop_test

// TestBacklogAllocBudget's budgets without the race detector: 2 % above
// the counts, which repeat within a few allocations from run to run.
var (
	mixedBudget   = backlogBudget{allocs: 26_500, bytes: 3_646_000}
	uniformBudget = backlogBudget{allocs: 19_980, bytes: 3_305_000}
)
