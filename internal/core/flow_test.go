package core_test

// The paper's §II-A describes the vHadoop execution flow in nine steps.
// This integration test walks all of them end to end, exercising every one
// of the platform's five modules in concert:
//
//  1. the Machine Learning Algorithm Library triggers a cluster request,
//  2. the Virtualization Module starts a hadoop virtual cluster,
//  3. the Hadoop Module configures it,
//  4. the input data is uploaded to HDFS,
//  5. the master assigns maps and reduces to the workers,
//  6. the mapping operation runs,
//  7. the reducing operation runs,
//  8. the output is collected and analysed (with nmon monitoring the master
//     and workers throughout),
//  9. the MapReduce Tuner adjusts the platform from the monitoring data.

import (
	"testing"

	"vhadoop/internal/cloud"
	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/tuner"
)

func TestPaperExecutionFlow(t *testing.T) {
	// Substrate: the two-machine testbed, capacity owned by the service.
	opts := core.DefaultOptions()
	opts.Nodes = 2
	pl := core.MustNewPlatform(opts)
	for _, vm := range pl.VMs {
		vm.Shutdown()
	}
	svc := cloud.NewService(pl.Xen, pl.PMs)

	// Step 1: the ML library needs a cluster for a k-means run.
	pts, _ := datasets.DisplayClusteringSample(sim.New(opts.Seed).Rand())
	vectors := clustering.FromFloats(pts)

	var result clustering.Result
	var recs []tuner.Recommendation
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()

		// Step 2: the Virtualization Module starts the cluster (with boot).
		lease, err := svc.Provision(p, cloud.Request{
			Name: "ml", Nodes: 8, VMMemBytes: 1024e6, Boot: true,
			// Step 3: the Hadoop Module's configuration.
			HDFS: hdfs.DefaultConfig(), MR: mapreduce.DefaultConfig(),
		})
		if err != nil {
			return err
		}

		// The leased cluster publishes into the platform's observability
		// plane (its collect hooks register after the base platform's, so
		// its gauges reflect the active cluster).
		lease.MR.SetObs(pl.Obs)
		lease.DFS.SetObs(pl.Obs)

		// Step 8 (setup): nmon watches master and workers from the start.
		mon := nmon.New(pl.Engine, nmon.WithInterval(2.0), nmon.WithPlane(pl.Obs))
		for _, vm := range lease.VMs {
			mon.Watch(vm)
		}
		for _, pm := range pl.PMs {
			mon.WatchMachine(pm)
		}
		mon.WatchDisk(pl.Filer.Disk)
		mon.Start()
		defer mon.Stop()

		tp := *pl
		tp.VMs, tp.Master, tp.DFS, tp.MR = lease.VMs, lease.Master, lease.DFS, lease.MR

		// Step 4: upload the input data to HDFS.
		driver := clustering.NewDriver(&tp, "/flow/input")
		if err := driver.Load(p, vectors); err != nil {
			return err
		}

		// Steps 5-7: the master assigns maps and reduces; the iterations run.
		result, err = clustering.KMeansMR(p, driver, driver.InitCenters(3),
			clustering.DefaultKMeansOptions(3))
		if err != nil {
			return err
		}

		// Step 8: collect and analyse the output + monitoring data.
		report := mon.Analyze()
		if report.Bottleneck.Resource == "" {
			t.Error("analyser produced no bottleneck")
		}

		// Step 9: the Tuner adjusts the platform from the monitoring data —
		// read back through the observability plane's snapshot, not from the
		// monitor object. The decision is reproducible from the export alone.
		snap := pl.Obs.Snapshot()
		metrics := tuner.MetricsFromSnapshot(snap)
		if metrics.Report.Bottleneck.Kind == "" {
			t.Error("snapshot-path metrics produced no bottleneck")
		}
		recs = tuner.New().Evaluate(metrics)
		tp.MR.Reconfigure(tuner.Apply(tp.MR.Config(), recs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The flow must have produced a real clustering of the real data.
	if len(result.Centers) != 3 {
		t.Fatalf("centers = %d", len(result.Centers))
	}
	if result.Iterations < 1 || result.Runtime <= 0 {
		t.Fatalf("iterations=%d runtime=%v", result.Iterations, result.Runtime)
	}
	counts := make(map[int]int)
	for _, a := range result.Assignments {
		counts[a]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
	// Recommendations may be empty on a healthy run; the flow only requires
	// the tuner to have evaluated the metrics without fault.
	t.Logf("flow complete: %d iterations, %d tuner recommendations", result.Iterations, len(recs))
}
