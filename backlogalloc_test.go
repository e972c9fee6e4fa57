package vhadoop_test

import (
	"runtime"
	"testing"

	"vhadoop/internal/jobsvc/backlog"
)

// TestBacklogAllocBudget runs the quick job-service backlog, bench/vhbench's
// smoke shape (20 tenants × 200 jobs on 8 nodes, the benchmark's scheduler
// config), and bounds the allocations and the bytes allocated by each run.
// It is the tier-1 gate on the heaviest benchmark workload's allocation
// rate.
//
// The budgets depend on the race detector (backlogbudget_race_test.go and
// backlogbudget_norace_test.go). Without -race the counts repeat within a
// few allocations, and the budgets sit 2 % above them: mixed 24,068
// allocations and 3,522,944 B, uniform 17,825 and 3,203,288 B, once the
// max-min solver's classes replaced its activity slices and the harness
// named each tenant and shared input once per run (24,494 / 3,529,480 B
// and 18,387 / 3,207,352 B before; 25,990 / 3,575,448 B and 19,593 /
// 3,240,728 B before the map and reduce emits were bound once per Cluster
// and the page cache was indexed by block id; 25,989 / 3,576,272 B and
// 19,597 / 3,240,848 B before the tasktracker heartbeats' timers moved
// onto a lane and page-cache re-inserts went O(1)). A map allocated per
// input line in the wordcount mapper adds thousands. Under -race they
// move within a band: three runs of one binary read 25,279, 25,249 and
// 25,218 allocations and 3.64 MB for mixed, and 18,692, 18,818 and 18,776
// and 3.29–3.30 MB for uniform. Those budgets sit about 5 % above the top
// of that band: 26,550 and 3.83 MB, and 19,760 and 3.47 MB. They sat
// about 15 % above the band when they were set before (mixed ≈ 27.2 k
// allocations and 3.71 MB, uniform ≈ 20.8 k and 3.36 MB, budgets 31,300
// and 4.27 MB, and 23,900 and 3.87 MB), and 21–22 % above it once the
// counts had fallen to 25.8 k and 19.5 k. Before the HDFS and
// shuffle I/O stages ran as callback chains instead of processes, the runs
// took 28.1 k allocations and 3.74 MB, and 20.8 k and 3.36 MB under -race
// (26.8 k and 3.59 MB, 19.6 k and 3.24 MB without), with budgets of
// 32.3 k and 4.30 MB, and 23.9 k and 3.87 MB. Before task attempts, their watchers and the HDFS stage records reused
// their process records and span floats waited for export to render, the
// runs took 31.1 k allocations and 4.07 MB, and 22.9 k and 3.58 MB under
// -race (29.9 k and 3.93 MB, 21.8 k and 3.46 MB without). Before that,
// HDFS pipeline stages, block-read and shuffle-fetch halves
// spawned fresh closures, every blocking flow and NFS disk job was a new
// record, and replica choice built slices and maps per block: the runs
// took 36.4 k allocations and 4.31 MB, and 24.4 k and 3.62 MB (under
// -race 37.8 k and 4.47 MB, 25.5 k and 3.74 MB). Picking only the tenant
// being served, refreshing one locality view in place of a new one per
// tick and resolving each slot ledger once had taken them there from
// 38.7 k and 4.49 MB, and 26.2 k and 3.77 MB under -race.
//
// For scale, the runs took 106.4 k and 50.2 k allocations without
// datasets' shared word table, FairShare.Use's recycled jobs and Queue's
// by-value line. Rendered with json.MarshalIndent instead of the presized
// obs.Tracer.JSON, the span trace took the runs to 11.28 MB and 10.64 MB.
// Before the record path reused one emit buffer, scattered map output into
// exact-size partitions and presized the reduce output, about 3 MB of each
// run's bytes were record buffers: the runs took 40.2 k and 26.8 k
// allocations and 7.64 MB and 7.26 MB (41.6 k, 27.9 k, 7.79 MB and
// 7.37 MB under -race).
func TestBacklogAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		uniform bool
		backlogBudget
	}{
		{"mixed", false, mixedBudget},
		{"uniform", true, uniformBudget},
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
			if n > c.allocs {
				t.Fatalf("%v allocations per run, budget %v", n, c.allocs)
			}
			if bytes > c.bytes {
				t.Fatalf("%d bytes allocated per run, budget %d", bytes, c.bytes)
			}
			t.Logf("%v allocations per run, budget %v; %d bytes, budget %d", n, c.allocs, bytes, c.bytes)
		})
	}
}

// backlogBudget bounds one backlog run's allocations and bytes allocated.
type backlogBudget struct {
	allocs float64
	bytes  uint64
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
