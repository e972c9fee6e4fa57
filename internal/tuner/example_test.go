package tuner_test

import (
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/tuner"
	"vhadoop/internal/workloads"
)

// Example_closedLoop runs the paper's nmon Monitor + MapReduce Tuner loop
// on a cross-domain cluster: nmon samples every VM and shared resource
// during a shuffle-heavy Wordcount, the tuner reads the observability
// snapshot, the cluster takes exactly the configuration tuner.Apply
// returns, and the same job runs again.
func Example_closedLoop() {
	opts := core.DefaultOptions()
	opts.Layout = core.CrossDomain
	pl := core.MustNewPlatform(opts)

	mon := nmon.New(pl.Engine, pl.Obs)
	for _, vm := range pl.VMs {
		mon.Watch(vm)
	}
	for _, pm := range pl.PMs {
		mon.WatchMachine(pm)
	}
	mon.WatchDisk(pl.Filer.Disk)
	mon.Start()

	_, err := pl.Run(func(p *sim.Proc) error {
		defer mon.Stop()
		// No combiner: the whole map output crosses the shuffle, which is
		// what makes the cross-domain layout hurt.
		before, err := workloads.RunWordcount(p, pl, "/tuner/corpus", 2048e6, 4, false)
		if err != nil {
			return err
		}

		// The tuner reads a registry snapshot alone: nmon publishes its
		// summaries into the observability plane next to the MapReduce job
		// history and the cluster shape.
		report := mon.Analyze()
		fmt.Printf("nmon bottleneck: %s (%s) at %.0f%% utilisation\n",
			report.Bottleneck.Resource, report.Bottleneck.Kind, report.Bottleneck.MeanUtil*100)
		recs := tuner.New().Evaluate(tuner.MetricsFromSnapshot(pl.Obs.Snapshot()))
		for _, r := range recs {
			fmt.Printf("tuner: %s\n", r)
		}

		cfg := tuner.Apply(pl.MR.Config(), recs)
		fmt.Printf("applied: io.sort.mb %.0f MB, map slots %d, reduce slots %d, speculative %v\n",
			cfg.SortBufferBytes/1e6, cfg.MapSlots, cfg.ReduceSlots, cfg.Speculative)
		pl.MR.Reconfigure(cfg)

		after, err := workloads.RunWordcount(p, pl, "/tuner/corpus", 2048e6, 4, false)
		if err != nil {
			return err
		}
		fmt.Printf("job runtime before tuning: %.1f s\n", before.Stats.Runtime)
		fmt.Printf("job runtime after tuning:  %.1f s\n", after.Stats.Runtime)
		return nil
	})
	if err != nil {
		fmt.Println("closed loop failed:", err)
	}
	// Output:
	// nmon bottleneck: filer.disk (disk) at 82% utilisation
	// tuner: increase-sort-buffer: spilled 20890 MB against 3482 MB shuffled: raise io.sort.mb above 100 MB
	// applied: io.sort.mb 200 MB, map slots 2, reduce slots 1, speculative false
	// job runtime before tuning: 285.7 s
	// job runtime after tuning:  225.2 s
}
