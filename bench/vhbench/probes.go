package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
	"vhadoop/internal/workloads"
)

// Layer probes: each drives one layer alone through its public API with a
// number of events known by construction, so the result is host time per
// unit of that layer's work, free of every other layer. They do not depend
// on the workload being run.

// timeProbe runs fn reps times and returns the median host nanoseconds of
// one run.
func timeProbe(reps int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// runProbes measures every probe metric into values, each probe as the
// median of reps repetitions.
func runProbes(values map[string]float64, reps int) {
	const procs, sleeps = 64, 2000
	handoff := func() {
		e := sim.New(1)
		for i := 0; i < procs; i++ {
			e.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(1)
				}
			})
		}
		e.Run()
		e.Shutdown()
	}
	values["sim.probe_handoff_ns"] = timeProbe(reps, handoff) / (procs * sleeps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	handoff()
	runtime.ReadMemStats(&m1)
	values["sim.probe_allocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / (procs * sleeps)

	// Timer callbacks with no goroutine behind them: the cost a sleep-loop
	// daemon would have as a timer.
	const chains, ticks = 128, 1000
	values["sim.probe_timer_ns"] = timeProbe(reps, func() {
		e := sim.New(1)
		for i := 0; i < chains; i++ {
			left := ticks
			var tick func()
			tick = func() {
				if left--; left > 0 {
					e.After(1, tick)
				}
			}
			e.After(sim.Time(i)/chains, tick)
		}
		e.Run()
	}) / (chains * ticks)

	const users, uses = 16, 500
	values["sim.probe_fairshare_ns"] = timeProbe(reps, func() {
		e := sim.New(1)
		fs := sim.NewFairShare(e, "probe", 4, 1)
		for i := 0; i < users; i++ {
			work := 1 + float64(i%5)
			e.Spawn("user", func(p *sim.Proc) {
				for j := 0; j < uses; j++ {
					fs.Use(p, work)
				}
			})
		}
		e.Run()
		e.Shutdown()
	}) / (users * uses)

	values["vnet.probe_flow_us_8"] = flowProbe(reps, 8, 500)
	values["vnet.probe_flow_us_64"] = flowProbe(reps, 64, 100)

	values["workloads.teragen_host_ms"] = timeProbe(reps, func() {
		pl := core.MustNewPlatform(core.DefaultOptions())
		_, err := pl.Run(func(p *sim.Proc) error {
			_, err := workloads.TeraGen(p, pl, "/tera/in", workloads.DefaultTeraOptions(1000e6))
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vhbench: TeraGen probe: %v\n", err)
		}
	}) / 1e6

	pts, _ := datasets.DisplayClusteringSample(sim.New(1).Rand())
	vecs := clustering.FromFloats(pts)
	initial := []clustering.Vector{vecs[0].Clone(), vecs[len(vecs)/3].Clone(), vecs[2*len(vecs)/3].Clone()}
	values["clustering.local_kmeans_ms"] = timeProbe(reps, func() {
		if _, err := clustering.KMeans(vecs, initial, clustering.DefaultKMeansOptions(3)); err != nil {
			fmt.Fprintf(os.Stderr, "vhbench: KMeans probe: %v\n", err)
		}
	}) / 1e6
}

// flowProbe keeps `concurrent` bulk flows in flight on the platform's
// three-machine topology until each sender has finished `each` of them, and
// returns host microseconds per flow from start to finish. Sizes and paths
// are staggered so that every start and finish changes the max-min rates.
func flowProbe(reps, concurrent, each int) float64 {
	params := core.DefaultParams()
	spec := phys.MachineSpec{
		Cores: params.Cores, DRAMBytes: params.DRAMBytes, DiskBW: params.LocalDisk,
		NICBW: params.NICBW, NICLat: params.NICLat, BridgeBW: params.BridgeBW, BridgeLat: params.BridgeLat,
	}
	return timeProbe(reps, func() {
		e := sim.New(1)
		fabric := vnet.NewFabric(e)
		topo := phys.NewTopology(e, fabric, params.SwitchBW, params.SwitchLat)
		ms := []*phys.Machine{topo.AddMachine("pm1", spec), topo.AddMachine("pm2", spec), topo.AddMachine("filer", spec)}
		for i := 0; i < concurrent; i++ {
			path := topo.Path(ms[i%3], ms[(i+1+i/3%2)%3])
			e.Spawn("sender", func(p *sim.Proc) {
				for j := 0; j < each; j++ {
					fabric.Transfer(p, "probe", path, 1e6*float64(1+(i+j)%7))
				}
			})
		}
		e.Run()
		e.Shutdown()
	}) / 1e3 / float64(concurrent*each)
}
