package mapreduce_test

import (
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// TestAttemptPathAllocs pins the allocations of one map-only job over a
// one-block input on a warm cluster: submission, the map attempt and its
// watcher, the map output and the job's spans, events and bookkeeping.
// The attempt and the watcher run in a recycled attempt record that holds
// both sim.Procs by value and both bodies bound once, so neither allocates
// a process. The xen.IOProc stages of the job's reads and writes own
// no process; re-recorded when they stopped being processes, the count
// did not move, because on a warm cluster their records and carriers were
// already reused. The mapper's emit is bound once in the Cluster's record
// scratch; while it was a per-map closure over its buffers and sizes, the
// same job took 4 more (25). While each launch also spawned two fresh
// Procs running two fresh closures, it took 8 more (29), and while the
// stage records also spawned a fresh Proc each, 13 more (34).
func TestAttemptPathAllocs(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(4, core.Normal))
	e := pl.Engine
	spec := mapreduce.JobSpec{
		Name:  "identity",
		Input: []string{"/in"},
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k string, v any, emit mapreduce.Emit) {
				emit(k, v, 8)
			})
		},
		Cost: mapreduce.CostModel{TaskSetupCPU: 1},
	}
	pl.MR.Start()
	const stepLen = 1000 // virtual seconds, far longer than one job
	q := sim.NewQueue(e, 1)
	q.Acquire(nil, 1) // the driver waits for the first step's release
	stop, jobs := false, 0
	e.Spawn("driver", func(p *sim.Proc) {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords([]string{"a b", "c"}, 1e6)); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		for !stop {
			q.Acquire(p, 1)
			if _, err := runJob(p, pl.MR, spec); err != nil {
				t.Errorf("job: %v", err)
				return
			}
			jobs++
		}
	})
	step := func() {
		q.Release(1)
		e.RunUntil(e.Now() + stepLen)
	}
	for i := 0; i < 3; i++ {
		step() // warm the free lists, the carriers and the page caches
	}
	n := testing.AllocsPerRun(20, step)
	if jobs != 24 {
		t.Fatalf("%d jobs ran, want 24", jobs)
	}
	if n != 21 {
		t.Errorf("%v allocs per one-map job, want 21", n)
	}
	stop = true
	step()
	pl.MR.Stop()
	e.Shutdown()
}
