package core_test

import (
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/virtlm"
	"vhadoop/internal/workloads"
	"vhadoop/internal/xen"
)

func TestMigrateWorkersMovesEverything(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Nodes = 4
	pl := core.MustNewPlatform(opts)
	_, err := pl.Run(func(p *sim.Proc) error {
		res, err := virtlm.MigrateCluster(p, pl, "all", pl.PMs[0], pl.PMs[1])
		if err != nil {
			return err
		}
		if len(res.PerVM) != 4 {
			t.Errorf("migrated %d VMs, want 4", len(res.PerVM))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range pl.VMs {
		if vm.Host() != pl.PMs[1] {
			t.Fatalf("%s still on %s", vm.Name, vm.Host().Name)
		}
	}
}

// TestHeartbeatWaitsOutMigrationPause migrates a worker with a
// stop-and-copy (8 s of activation overhead) longer than the 3 s heartbeat
// interval but shorter than the 30 s tracker timeout, and submits a job as
// the pause begins, so the job has pending tasks while the paused worker's
// heartbeat waits on its VM's gate. That tracker reports in only after the
// resume: late, but not declared dead. The job's end time and the downtime
// are pinned, so a heartbeat that skipped or reordered the wait would move
// them.
func TestHeartbeatWaitsOutMigrationPause(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Nodes = 5
	opts.Migration.ActivationOverhead = 8
	pl := core.MustNewPlatform(opts)
	vm := pl.Workers()[0]
	var stats xen.MigrationStats
	var submit, end sim.Time
	_, err := pl.Run(func(p *sim.Proc) error {
		spec := workloads.WordcountSpec{Input: "/mig/in", SizeBytes: 1024e6, Reduces: 1, RealLines: 64}
		if err := spec.Stage(p, pl); err != nil {
			return err
		}
		var merr error
		mig := p.Engine().Spawn("migrate", func(q *sim.Proc) {
			stats, merr = pl.Xen.Migrate(q, vm, pl.PMs[1], opts.Migration)
		})
		for vm.State() != xen.StatePaused {
			p.Sleep(0.5)
		}
		submit = p.Now()
		if _, err := spec.Run(p, pl); err != nil {
			return err
		}
		end = p.Now()
		if err := sim.WaitProcs(p, mig); err != nil {
			return err
		}
		return merr
	})
	if err != nil {
		t.Fatal(err)
	}
	if hb := opts.MR.HeartbeatInterval; stats.Downtime <= hb || stats.Downtime >= opts.MR.TrackerTimeout {
		t.Fatalf("downtime %v outside (%v, %v): the pause must swallow a heartbeat and stay under the timeout",
			stats.Downtime, hb, opts.MR.TrackerTimeout)
	}
	if resume := stats.Start + stats.Total; submit >= resume || end <= resume {
		t.Fatalf("job ran %v..%v, the pause ended at %v: the job must span the resume", submit, end, resume)
	}
	if end != 212.4507272505607 || stats.Downtime != 8.018697394957979 {
		t.Fatalf("job end %v, downtime %v; want 212.4507272505607, 8.018697394957979", end, stats.Downtime)
	}
	if tr := pl.MR.Trackers()[0]; tr.VM != vm || !tr.Alive() {
		t.Fatalf("tracker on %s declared dead during a %v s pause", vm.Name, stats.Downtime)
	}
}
