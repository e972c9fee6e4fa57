package vhadoop_test

import (
	"runtime"
	"testing"

	"vhadoop/internal/jobsvc/backlog"
)

// TestBacklogAllocBudget runs the quick job-service backlog, bench/vhbench's
// smoke shape (20 tenants × 200 jobs on 8 nodes, the benchmark's scheduler
// config), and bounds the allocations and the bytes allocated by each run.
// Neither depends on the host, so this is the tier-1 gate on the heaviest
// benchmark workload's allocation rate.
//
// The count budgets sit about 15 % above the counts under -race when they
// were set (mixed ≈ 43.8 k, uniform ≈ 30.0 k; without -race 42.5 k and
// 28.8 k), and well below the 106.4 k and 50.2 k the runs take without
// datasets' shared word table, FairShare.Use's recycled jobs and Queue's
// by-value line. The presized trace render took the runs to 41.6 k and
// 27.9 k under -race (40.4 k and 26.9 k without).
//
// The byte budgets sit about 15 % above the bytes under -race (mixed
// ≈ 7.82 MB, uniform ≈ 7.38 MB; without -race 7.66 MB and 7.26 MB). Most
// of each run's bytes are the span trace, which obs.Tracer.JSON writes
// into one presized buffer; rendered with json.MarshalIndent, the same
// runs took 11.28 MB and 10.64 MB (12.47 MB and 11.81 MB under -race).
func TestBacklogAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name        string
		uniform     bool
		budget      float64
		bytesBudget uint64
	}{
		{"mixed", false, 50_000, 9_000_000},
		{"uniform", true, 34_500, 8_500_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := bigBacklog()
			o.Nodes, o.Seed, o.Tenants, o.Jobs, o.Uniform = 8, 1, 20, 200, c.uniform
			var err error
			n, bytes := allocsPerRun(func() {
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
			if bytes > c.bytesBudget {
				t.Fatalf("%d bytes allocated per run, budget %d", bytes, c.bytesBudget)
			}
			t.Logf("%v allocations per run, budget %v; %d bytes, budget %d", n, c.budget, bytes, c.bytesBudget)
		})
	}
}

// allocsPerRun measures f as testing.AllocsPerRun(1, f) does — one
// warm-up call, then one call on a single P — and returns the
// allocations and the bytes allocated by the measured call.
func allocsPerRun(f func()) (allocs float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), after.TotalAlloc - before.TotalAlloc
}
