package vhadoop_test

import (
	"math"
	"sync"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// dfsioRun is one layout's half of vhbench's dfsio op: DFSIO 15 x 512 MB
// written and then read at platform seed 1001, the op's first seed.
type dfsioRun struct {
	end   sim.Time
	write float64 // MB/s
	read  float64 // MB/s
	stats sim.Stats
}

var dfsioRuns = sync.OnceValues(func() (map[core.Layout]dfsioRun, error) {
	o := workloads.DFSIOOptions{Files: 15, FileBytes: 512e6}
	runs := map[core.Layout]dfsioRun{}
	for _, layout := range []core.Layout{core.Normal, core.CrossDomain} {
		pl, err := core.NewPlatform(platformOpts(core.DefaultOptions().Nodes, layout, 1001))
		if err != nil {
			return nil, err
		}
		var w, r workloads.DFSIOResult
		end, err := pl.Run(func(p *sim.Proc) error {
			var err error
			if w, err = workloads.RunDFSIOWrite(p, pl, o); err != nil {
				return err
			}
			r, err = workloads.RunDFSIORead(p, pl, o)
			return err
		})
		if err != nil {
			return nil, err
		}
		runs[layout] = dfsioRun{end, w.ThroughputMBps, r.ThroughputMBps, pl.Engine.Stats()}
	}
	return runs, nil
})

// TestDFSIOGolden pins the exact bits of the dfsio op's virtual results on
// each layout: the end time and the write and read throughput. The I/O
// workload is where the solver does most of its work, so a change to how
// or when rates are computed shows here first. The figures were recorded
// before the solver put same-instant re-rates off (parent commit d37f40e),
// except the cross-domain read throughput: it moved 4 ulps (…a14c to
// …a148, 158.6657799307817 to 158.66577993078158 MB/s, -7.2e-16
// relative) when classes of activities became the solver's unit, whose
// n*rate and finish-v round differently from per-activity subtraction. A
// change that moves one changes the simulation.
func TestDFSIOGolden(t *testing.T) {
	runs, err := dfsioRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layout           core.Layout
		end, write, read uint64 // math.Float64bits
	}{
		{core.Normal, 0x4065400000000000, 0x4048fffe0d7d7645, 0x4090727ad7a1a755},
		{core.CrossDomain, 0x406a400000000000, 0x4048ffff90ad1c29, 0x4063d54e11b6a148},
	} {
		got := runs[tc.layout]
		if math.Float64bits(got.end) != tc.end || math.Float64bits(got.write) != tc.write || math.Float64bits(got.read) != tc.read {
			t.Errorf("%v: end %v write %v read %v MB/s (bits %#x %#x %#x), want bits %#x %#x %#x",
				tc.layout, got.end, got.write, got.read,
				math.Float64bits(got.end), math.Float64bits(got.write), math.Float64bits(got.read),
				tc.end, tc.write, tc.read)
		}
	}
}

// TestDFSIOSolverWork pins the engine's event counters and the max-min
// solvers' work counters for the same op. They are exact, so a change to
// the engine's or the solver's cost states its claim here without timing
// pairs. Every retirement pass that leaves an activity in service
// re-rates, 880 and 1,313 times; putting same-instant re-rates off until
// the clock moved once cut that to 117 and 934, but saved no host time
// once filling froze whole classes, and was removed. Before the
// tasktracker heartbeats' interval timers moved off the heap onto a lane,
// all 1,830 of them (810 normal, 1,020 cross-domain) were heap pops: the
// op popped 2,326 and 3,215 heap events, with the heap 45,709 and 57,964
// long summed over the pops. Before progressive filling froze whole
// classes of activities that share a route and a cap, Visits counted
// activities per round, not classes. The op starts 32 processes per
// layout on 17 carriers and resumes them 659 and 662 times.
func TestDFSIOSolverWork(t *testing.T) {
	runs, err := dfsioRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layout core.Layout
		want   sim.Stats
	}{
		{core.Normal, sim.Stats{
			HeapPops: 1516, HeapLen: 15049, ReadyPops: 1833, LanePops: 810,
			Spawns: 32, Resumes: 659, Carriers: 17,
			Rerates: 880, Rounds: 1112, Visits: 1576,
		}},
		{core.CrossDomain, sim.Stats{
			HeapPops: 2195, HeapLen: 11668, ReadyPops: 1834, LanePops: 1020,
			Spawns: 32, Resumes: 662, Carriers: 17,
			Rerates: 1313, Rounds: 1999, Visits: 5248,
		}},
	} {
		if got := runs[tc.layout].stats; got != tc.want {
			t.Errorf("%v: engine and solver work %+v, want %+v", tc.layout, got, tc.want)
		}
	}
}
