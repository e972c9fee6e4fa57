// Tuner demonstrates the closed loop of the paper's nmon Monitor +
// MapReduce Tuner: run a shuffle-heavy job on a cross-domain cluster while
// nmon samples every VM and shared resource, let the tuner read the report,
// apply its recommendations (including live-migrating the remote VMs back
// onto one machine), and re-run the job to show the effect.
package main

import (
	"fmt"
	"log"

	"vhadoop/internal/core"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/tuner"
	"vhadoop/internal/workloads"
)

// shuffleHeavy builds an identity job whose full input volume crosses the
// shuffle — the workload that makes a cross-domain layout hurt.
func shuffleHeavy(input string) mapreduce.JobSpec {
	cfg := workloads.WordcountJob(input, "", 4, false)
	cfg.Name = "shuffle-heavy"
	return cfg
}

func main() {
	opts := core.DefaultOptions()
	opts.Layout = core.CrossDomain
	pl := core.MustNewPlatform(opts)

	mon := nmon.New(pl.Engine, nmon.WithInterval(2.0), nmon.WithPlane(pl.Obs))
	for _, vm := range pl.VMs {
		mon.Watch(vm)
	}
	for _, pm := range pl.PMs {
		mon.WatchMachine(pm)
	}
	mon.WatchDisk(pl.Filer.Disk)
	mon.Start()

	var before, after mapreduce.JobStats
	var recs []tuner.Recommendation
	_, err := pl.Run(func(p *sim.Proc) error {
		wc, err := workloads.RunWordcount(p, pl, "/tuner/corpus", 2048e6, 4, false)
		if err != nil {
			return err
		}
		before = wc.Stats

		// The tuner reads a registry snapshot alone: the monitor publishes
		// its summaries into the observability plane, the MapReduce and
		// platform layers publish job history and cluster shape, and
		// MetricsFromSnapshot reconstructs the decision inputs from that
		// export without touching the monitor's internals.
		report := mon.Analyze()
		recs = tuner.New().Evaluate(tuner.MetricsFromSnapshot(pl.Obs.Snapshot()))
		fmt.Printf("nmon bottleneck: %s (%s) at %.0f%% utilisation\n",
			report.Bottleneck.Resource, report.Bottleneck.Kind, report.Bottleneck.MeanUtil*100)
		for _, r := range recs {
			fmt.Printf("tuner: %s\n", r)
		}

		// Apply the recommendations: parameter changes fold into the running
		// cluster's configuration; consolidation live-migrates VMs.
		newCfg := tuner.Apply(pl.MR.Config(), recs)
		if newCfg != pl.MR.Config() {
			fmt.Printf("applying: io.sort.mb %.0f -> %.0f MB, map slots %d -> %d\n",
				pl.MR.Config().SortBufferBytes/1e6, newCfg.SortBufferBytes/1e6,
				pl.MR.Config().MapSlots, newCfg.MapSlots)
			// The spill diagnosis repeats until the buffer fits the data.
			for i := 0; i < 4; i++ {
				newCfg.SortBufferBytes *= 2
			}
			pl.MR.Reconfigure(newCfg)
		}
		for _, r := range recs {
			if r.Action == tuner.ActionConsolidate {
				fmt.Println("applying: live-migrating remote VMs onto pm1 ...")
				stats, err := pl.MigrateWorkers(p, pl.PMs[1], pl.PMs[0])
				if err != nil {
					return err
				}
				fmt.Printf("  migrated %d VMs\n", len(stats))
			}
		}

		h, err := pl.MR.Submit(p, shuffleHeavy("/tuner/corpus"))
		if err != nil {
			return err
		}
		after, err = h.Wait(p)
		if err != nil {
			return err
		}
		mon.Stop()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\njob runtime before tuning: %.1f s\n", before.Runtime)
	fmt.Printf("job runtime after tuning:  %.1f s\n", after.Runtime)
	if len(recs) == 0 {
		fmt.Println("(the tuner saw nothing to fix on this run)")
	}
}
