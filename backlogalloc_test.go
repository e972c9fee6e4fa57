package vhadoop_test

import (
	"testing"

	"vhadoop/internal/jobsvc/backlog"
)

// TestBacklogAllocBudget runs the quick job-service backlog, bench/vhbench's
// smoke shape (20 tenants × 200 jobs on 8 nodes, the benchmark's scheduler
// config), and bounds the allocations of each run. Allocation counts do not
// depend on the host, so this is the tier-1 gate on the heaviest benchmark
// workload's allocation rate.
//
// The budgets sit about 15 % above the counts under -race (mixed ≈ 43.8 k,
// uniform ≈ 30.0 k; without -race 42.5 k and 28.8 k), and well below the
// 106.4 k and 50.2 k the runs take without datasets' shared word table,
// FairShare.Use's recycled jobs and Queue's by-value line.
func TestBacklogAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		uniform bool
		budget  float64
	}{
		{"mixed", false, 50_000},
		{"uniform", true, 34_500},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := bigBacklog()
			o.Nodes, o.Seed, o.Tenants, o.Jobs, o.Uniform = 8, 1, 20, 200, c.uniform
			var err error
			n := testing.AllocsPerRun(1, func() {
				if _, e := backlog.Run(o); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("backlog run failed: %v", err)
			}
			if n > c.budget {
				t.Fatalf("%v allocations per run, budget %v", n, c.budget)
			}
			t.Logf("%v allocations per run, budget %v", n, c.budget)
		})
	}
}
