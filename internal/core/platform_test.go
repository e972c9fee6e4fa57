package core

import (
	"errors"
	"strings"
	"testing"

	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

func TestProvisionNormalLayout(t *testing.T) {
	pl := MustNewPlatform(DefaultOptions())
	if len(pl.VMs) != 16 {
		t.Fatalf("VMs = %d", len(pl.VMs))
	}
	for _, vm := range pl.VMs {
		if vm.Host() != pl.PMs[0] {
			t.Fatalf("%s on %s in normal layout", vm.Name, vm.Host().Name)
		}
	}
	if len(pl.Workers()) != 15 {
		t.Fatalf("workers = %d", len(pl.Workers()))
	}
	if pl.Master != pl.VMs[0] {
		t.Fatal("master is not VMs[0]")
	}
	if got := len(pl.DFS.Datanodes()); got != 15 {
		t.Fatalf("datanodes = %d", got)
	}
	if got := len(pl.MR.Trackers()); got != 15 {
		t.Fatalf("trackers = %d", got)
	}
	// The namenode and the jobtracker serve from the master VM: once it
	// crashes, every tasktracker's heartbeat goes unanswered and an HDFS
	// write from a worker fails at its namenode RPC.
	var dead float64
	_, err := pl.Run(func(p *sim.Proc) error {
		pl.Master.Crash()
		p.Sleep(2 * pl.Opts.MR.TrackerTimeout)
		dead, _ = pl.Obs.Snapshot().Value("mr_trackers_dead")
		_, err := pl.DFS.Write(p, pl.Workers()[0], "/probe", 1e6, nil)
		return err
	})
	if dead != 15 {
		t.Fatalf("%v of 15 trackers declared dead after the master crashed: jobtracker not on the master VM", dead)
	}
	if !errors.Is(err, xen.ErrVMDead) || !strings.Contains(err.Error(), pl.Master.Name) {
		t.Fatalf("write after the master crashed: err = %v, want ErrVMDead naming %s: namenode not on the master VM", err, pl.Master.Name)
	}
}

func TestProvisionCrossDomainLayout(t *testing.T) {
	opts := DefaultOptions()
	opts.Layout = CrossDomain
	pl := MustNewPlatform(opts)
	perPM := map[string]int{}
	for _, vm := range pl.VMs {
		perPM[vm.Host().Name]++
	}
	if perPM["pm1"] != 8 || perPM["pm2"] != 8 {
		t.Fatalf("cross-domain distribution: %v", perPM)
	}
}

func TestProvisionRejectsTinyCluster(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 1
	if _, err := NewPlatform(opts); err == nil {
		t.Fatal("1-node cluster accepted")
	}
}

func TestProvisionRejectsOversizedCluster(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 100 // 100 GB of VMs on a 32 GB machine
	if _, err := NewPlatform(opts); err == nil {
		t.Fatal("oversized normal-layout cluster accepted")
	}
}

func TestRunPropagatesDriverError(t *testing.T) {
	pl := MustNewPlatform(DefaultOptions())
	sentinel := errors.New("boom")
	_, err := pl.Run(func(p *sim.Proc) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunDrainsAndShutsDown(t *testing.T) {
	pl := MustNewPlatform(DefaultOptions())
	end, err := pl.Run(func(p *sim.Proc) error {
		p.Sleep(5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end < 5 {
		t.Fatalf("simulation ended at %v", end)
	}
	if pl.Engine.LiveProcs() != 0 {
		t.Fatalf("%d processes leaked after Run", pl.Engine.LiveProcs())
	}
}

func TestDeterministicProvisioning(t *testing.T) {
	a := MustNewPlatform(DefaultOptions())
	b := MustNewPlatform(DefaultOptions())
	endA, errA := a.Run(func(p *sim.Proc) error { p.Sleep(1); return nil })
	endB, errB := b.Run(func(p *sim.Proc) error { p.Sleep(1); return nil })
	if errA != nil || errB != nil || endA != endB {
		t.Fatalf("same-seed platforms diverged: %v/%v %v/%v", endA, errA, endB, errB)
	}
}
