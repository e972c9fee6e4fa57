package xen

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vhadoop/internal/nfs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

// testbed with two 8-core compute machines and an NFS filer.
func newTestbed(seed int64) (*sim.Engine, *phys.Topology, *Manager) {
	e := sim.New(seed)
	f := vnet.NewFabric(e)
	topo := phys.NewTopology(e, f, 10e9, 0.00001)
	spec := phys.MachineSpec{
		Cores: 8, DRAMBytes: 32e9, DiskBW: 100e6,
		NICBW: 119e6, NICLat: 0.0001, BridgeBW: 500e6, BridgeLat: 0.00002,
	}
	topo.AddMachine("pm1", spec)
	topo.AddMachine("pm2", spec)
	filer := topo.AddMachine("filer", spec)
	mgr := NewManager(topo, nfs.NewServer(topo, filer))
	return e, topo, mgr
}

func TestExecUncontended(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	var done sim.Time
	e.Spawn("task", func(p *sim.Proc) {
		vm.Exec(p, 5)
		done = p.Now()
	})
	e.Run()
	almost(t, done, 5, 1e-6, "5 core-seconds on an idle host")
	almost(t, vm.CPUUsed(), 5, 1e-9, "CPU accounting")
}

func TestExecCreditSchedulerOversubscription(t *testing.T) {
	// 16 single-VCPU VMs on 8 cores: every VM runs at half speed.
	e, topo, mgr := newTestbed(1)
	host := topo.Machines()[0]
	var last sim.Time
	for i := 0; i < 16; i++ {
		vm := mgr.MustDefine("vm", 1e9, host)
		e.Spawn("task", func(p *sim.Proc) {
			vm.Exec(p, 5)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	almost(t, last, 10, 1e-3, "16 VCPUs on 8 cores at half speed")
}

func TestDefineRespectsDRAM(t *testing.T) {
	_, topo, mgr := newTestbed(1)
	host := topo.Machines()[0]
	for i := 0; i < 32; i++ {
		mgr.MustDefine("vm", 1e9, host)
	}
	if _, err := mgr.Define("vm33", 1e9, host); err == nil {
		t.Fatal("33rd 1GB VM fit on a 32GB machine")
	}
}

func TestPauseStallsExecution(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	var done sim.Time
	e.Spawn("task", func(p *sim.Proc) {
		vm.Exec(p, 2)
		done = p.Now()
	})
	e.At(0.5, func() { vm.pause() })
	e.At(3.5, func() { vm.resume() })
	e.Run()
	// Roughly 3s of stall (quantum granularity allows the in-flight quantum
	// to finish).
	if done < 4.5 || done > 5.5 {
		t.Fatalf("exec finished at %v, want ~5s with a 3s pause", done)
	}
}

func TestCrashAbortsOperations(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	task := e.Spawn("task", func(p *sim.Proc) {
		vm.Exec(p, 100)
	})
	e.At(1, func() { vm.Crash() })
	e.Run()
	if task.Err() == nil || !errors.Is(task.Err(), ErrVMDead) {
		t.Fatalf("task error = %v, want ErrVMDead", task.Err())
	}
	if vm.State() != StateCrashed {
		t.Fatalf("state = %v", vm.State())
	}
}

func TestDiskIOGoesThroughNFS(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	var done sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		vm.WriteDisk(p, 200e6)
		done = p.Now()
	})
	e.Run()
	// 200MB x 1.5 RAID write penalty at 100MB/s filer disk = 3s.
	almost(t, done, 3, 0.05, "disk write via NFS")
	almost(t, vm.DiskWrite(), 200e6, 1, "disk accounting")
}

func TestSendToIntraVsCross(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	a := mgr.MustDefine("a", 1e9, pm1)
	b := mgr.MustDefine("b", 1e9, pm1)
	c := mgr.MustDefine("c", 1e9, pm2)
	var intra, cross sim.Time
	e.Spawn("intra", func(p *sim.Proc) {
		start := p.Now()
		if err := a.spawnIO(ioSend, b, 0, 250e6).Wait(p); err != nil {
			t.Errorf("intra send: %v", err)
		}
		intra = p.Now() - start
	})
	e.Run()
	e.Spawn("cross", func(p *sim.Proc) {
		start := p.Now()
		if err := a.spawnIO(ioSend, c, 0, 250e6).Wait(p); err != nil {
			t.Errorf("cross send: %v", err)
		}
		cross = p.Now() - start
	})
	e.Run()
	almost(t, intra, 0.5, 0.01, "intra via 500MB/s bridge")
	almost(t, cross, 250e6/119e6, 0.01, "cross via 119MB/s NIC")
	almost(t, a.NetSent(), 500e6, 1, "sender accounting")
	almost(t, c.NetRecv(), 250e6, 1, "receiver accounting")
}

func TestActivityTracksDirtyRate(t *testing.T) {
	_, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	base := vm.DirtyRate()
	vm.AddActivity(40e6)
	vm.AddActivity(10e6)
	almost(t, vm.DirtyRate(), base+50e6, 1, "dirty rate with activity")
	vm.RemoveActivity(40e6)
	vm.RemoveActivity(10e6)
	almost(t, vm.DirtyRate(), base, 1, "dirty rate after removal")
}

func TestMigrationIdle(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 1024e6, pm1)
	var stats MigrationStats
	e.Spawn("mig", func(p *sim.Proc) {
		var err error
		stats, err = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	e.Run()
	// First round: 1024MB at 119MB/s ≈ 8.6s; idle dirty rate 2MB/s dirties
	// ~17MB; a couple more rounds converge quickly.
	if stats.Total < 8 || stats.Total > 12 {
		t.Fatalf("idle migration total = %v, want ~9s", stats.Total)
	}
	if stats.Downtime > 0.2 {
		t.Fatalf("idle downtime = %v, want well under 200ms", stats.Downtime)
	}
	if vm.Host() != pm2 {
		t.Fatalf("VM still on %s", vm.Host().Name)
	}
	if vm.Migrations() != 1 {
		t.Fatalf("migration count = %d", vm.Migrations())
	}
	almost(t, pm1.MemFree(), 32e9, 1, "source memory released")
}

func TestMigrationBusyVsIdle(t *testing.T) {
	run := func(activity float64) MigrationStats {
		e, topo, mgr := newTestbed(1)
		pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
		vm := mgr.MustDefine("vm1", 1024e6, pm1)
		vm.AddActivity(activity)
		var stats MigrationStats
		e.Spawn("mig", func(p *sim.Proc) {
			stats, _ = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
		})
		e.Run()
		return stats
	}
	idle, busy := run(0), run(40e6)
	if busy.Total <= idle.Total {
		t.Fatalf("busy migration (%v) not longer than idle (%v)", busy.Total, idle.Total)
	}
	if busy.Downtime <= idle.Downtime*2 {
		t.Fatalf("busy downtime (%v) not much larger than idle (%v)", busy.Downtime, idle.Downtime)
	}
	if busy.Rounds <= idle.Rounds {
		t.Fatalf("busy rounds (%d) not more than idle (%d)", busy.Rounds, idle.Rounds)
	}
}

func TestMigrationMemorySizeScaling(t *testing.T) {
	run := func(mem float64) MigrationStats {
		e, topo, mgr := newTestbed(1)
		pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
		vm := mgr.MustDefine("vm1", mem, pm1)
		var stats MigrationStats
		e.Spawn("mig", func(p *sim.Proc) {
			stats, _ = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
		})
		e.Run()
		return stats
	}
	small, large := run(512e6), run(1024e6)
	if large.Total <= small.Total {
		t.Fatalf("1024MB migration (%v) not longer than 512MB (%v)", large.Total, small.Total)
	}
	// Downtime has no causal relationship with memory size (paper, §III-C).
	if ratio := large.Downtime / small.Downtime; ratio > 1.5 || ratio < 0.67 {
		t.Fatalf("downtime scaled with memory (%v vs %v)", large.Downtime, small.Downtime)
	}
}

func TestMigrateToSameHostFails(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1 := topo.Machines()[0]
	vm := mgr.MustDefine("vm1", 1e9, pm1)
	var err error
	e.Spawn("mig", func(p *sim.Proc) {
		_, err = mgr.Migrate(p, vm, pm1, DefaultMigrationConfig())
	})
	e.Run()
	if err == nil {
		t.Fatal("migration to current host succeeded")
	}
}

func TestMigrateCrashedVMFails(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 1e9, pm1)
	vm.Crash()
	var err error
	e.Spawn("mig", func(p *sim.Proc) {
		_, err = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
	})
	e.Run()
	if !errors.Is(err, ErrVMDead) {
		t.Fatalf("err = %v, want ErrVMDead", err)
	}
}

func TestMigrationAbortsWhenDestinationFails(t *testing.T) {
	// 1 GB over the ~119 MB/s storage NIC: round 0 alone takes ~8.4s, so a
	// destination failure at t=2 is observed at the next round boundary. The
	// guest must keep running on the source with the destination reservation
	// undone.
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 1e9, pm1)
	free := pm2.MemFree()
	e.At(2, pm2.Fail)
	var err error
	e.Spawn("m", func(p *sim.Proc) {
		_, err = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
	})
	e.Run()
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted", err)
	}
	if vm.Host() != pm1 || vm.State() != StateRunning {
		t.Fatalf("vm on %s in state %v, want running on pm1", vm.Host(), vm.State())
	}
	almost(t, pm2.MemFree(), free, 1, "destination reservation released")
}

func TestMigrationAbortsWhenVMCrashesMidPreCopy(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 1e9, pm1)
	srcFree, dstFree := pm1.MemFree(), pm2.MemFree()
	e.At(2, vm.Crash)
	var err error
	e.Spawn("m", func(p *sim.Proc) {
		_, err = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
	})
	e.Run()
	if !errors.Is(err, ErrVMDead) {
		t.Fatalf("err = %v, want ErrVMDead", err)
	}
	if vm.State() != StateCrashed {
		t.Fatalf("vm state = %v, want crashed (not resurrected by resume)", vm.State())
	}
	almost(t, pm2.MemFree(), dstFree, 1, "destination reservation released")
	almost(t, pm1.MemFree(), srcFree+1e9, 1, "crash released source memory")
}

func TestCrashMachineCrashesResidents(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	a := mgr.MustDefine("a", 1e9, pm1)
	b := mgr.MustDefine("b", 1e9, pm1)
	c := mgr.MustDefine("c", 1e9, pm2)
	crashed := mgr.CrashMachine(pm1)
	if len(crashed) != 2 || crashed[0] != a || crashed[1] != b {
		t.Fatalf("crashed = %v, want [a b]", crashed)
	}
	if a.State() != StateCrashed || b.State() != StateCrashed {
		t.Fatal("co-resident VMs not crashed with their machine")
	}
	if c.State() != StateRunning {
		t.Fatalf("VM on surviving machine in state %v", c.State())
	}
	if !pm1.Failed() {
		t.Fatal("machine not marked failed")
	}
	if _, err := mgr.Define("d", 1e9, pm1); err == nil {
		t.Fatal("failed machine accepted a new VM")
	}
	_ = e
}

func TestBootChargesImageAndBootTime(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	vm := mgr.MustDefine("vm1", 1e9, topo.Machines()[0])
	var done sim.Time
	e.Spawn("boot", func(p *sim.Proc) {
		mgr.Boot(p, vm)
		done = p.Now()
	})
	e.Run()
	// 1.5GB image at 100MB/s disk = 15s, plus 20s boot.
	almost(t, done, 35, 0.5, "boot time")
}

func TestExecDuringMigrationStallsOnlyDuringDowntime(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 512e6, pm1)
	var execDone sim.Time
	e.Spawn("task", func(p *sim.Proc) {
		vm.Exec(p, 20)
		execDone = p.Now()
	})
	var stats MigrationStats
	e.Spawn("mig", func(p *sim.Proc) {
		p.Sleep(1)
		stats, _ = mgr.Migrate(p, vm, pm2, DefaultMigrationConfig())
	})
	e.Run()
	// The task runs throughout pre-copy; only the downtime stalls it.
	if execDone > 20+stats.Downtime+1 {
		t.Fatalf("exec done at %v, want ~20s + downtime %v", execDone, stats.Downtime)
	}
	if vm.Host() != pm2 {
		t.Fatal("VM did not move")
	}
}

func TestMigrationChainRoundTrip(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1, pm2 := topo.Machines()[0], topo.Machines()[1]
	vm := mgr.MustDefine("vm1", 512e6, pm1)
	e.Spawn("mig", func(p *sim.Proc) {
		if _, err := mgr.Migrate(p, vm, pm2, DefaultMigrationConfig()); err != nil {
			t.Errorf("first hop: %v", err)
		}
		if _, err := mgr.Migrate(p, vm, pm1, DefaultMigrationConfig()); err != nil {
			t.Errorf("return hop: %v", err)
		}
	})
	e.Run()
	if vm.Host() != pm1 {
		t.Fatalf("VM on %s after round trip", vm.Host().Name)
	}
	if vm.Migrations() != 2 {
		t.Fatalf("migration count = %d", vm.Migrations())
	}
	// Memory accounting must be exact after the round trip.
	almost(t, pm1.MemFree(), 32e9-512e6, 1, "pm1 memory")
	almost(t, pm2.MemFree(), 32e9, 1, "pm2 memory")
}

func TestShutdownReleasesMemoryAndAbortsOps(t *testing.T) {
	e, topo, mgr := newTestbed(1)
	pm1 := topo.Machines()[0]
	vm := mgr.MustDefine("vm1", 2e9, pm1)
	task := e.Spawn("task", func(p *sim.Proc) {
		vm.Exec(p, 100)
	})
	e.At(1, func() { vm.Shutdown() })
	e.Run()
	if !errors.Is(task.Err(), ErrVMStopped) {
		t.Fatalf("task err = %v, want ErrVMStopped", task.Err())
	}
	almost(t, pm1.MemFree(), 32e9, 1, "memory after shutdown")
	// Idempotent; Crash after Shutdown is a no-op.
	vm.Shutdown()
	vm.Crash()
	if vm.State() != StateShutdown {
		t.Fatalf("state = %v", vm.State())
	}
}

// Property: after any sequence of define/migrate/shutdown operations, every
// machine's committed memory equals the sum of its live VMs' reservations.
func TestMemoryAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		e, topo, mgr := newTestbed(9)
		pms := topo.Machines()[:2]
		var vms []*VM
		ok := true
		// The driver defines VMs and steers the manager — coordinator
		// work, so it stays on the Shared domain like production drivers.
		e.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				switch op % 3 {
				case 0: // define
					if vm, err := mgr.Define("vm", 1e9, pms[int(op/3)%2]); err == nil {
						vms = append(vms, vm)
					}
				case 1: // migrate a live VM
					for _, vm := range vms {
						if vm.State() == StateRunning {
							dst := pms[0]
							if vm.Host() == pms[0] {
								dst = pms[1]
							}
							mgr.Migrate(p, vm, dst, DefaultMigrationConfig())
							break
						}
					}
				case 2: // shutdown a live VM
					for _, vm := range vms {
						if vm.State() == StateRunning {
							vm.Shutdown()
							break
						}
					}
				}
			}
		})
		e.Run()
		for _, pm := range pms {
			var want float64
			for _, vm := range vms {
				if vm.State() == StateRunning && vm.Host() == pm {
					want += vm.MemBytes
				}
			}
			if math.Abs((pm.Spec.DRAMBytes-pm.MemFree())-want) > 1 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
