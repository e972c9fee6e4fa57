package cloud_test

import (
	"errors"
	"fmt"
	"testing"

	"vhadoop/internal/cloud"
	"vhadoop/internal/core"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// pool builds a bare platform (no pre-provisioned cluster) whose machines
// form the service's pool. We reuse core's hardware calibration by creating
// a minimal 2-node platform and ignoring its cluster.
func pool(seed int64) (*core.Platform, *cloud.Service) {
	opts := core.DefaultOptions()
	opts.Nodes = 2 // placeholder VMs; the service provisions its own
	opts.Seed = seed
	pl := core.MustNewPlatform(opts)
	// Free the placeholder VMs so the whole pool belongs to the service.
	for _, vm := range pl.VMs {
		vm.Shutdown()
	}
	return pl, cloud.NewService(pl.Xen, pl.PMs)
}

func request(name string, nodes int) cloud.Request {
	return cloud.Request{
		Name:       name,
		Nodes:      nodes,
		VMMemBytes: 1024e6,
		HDFS:       hdfs.DefaultConfig(),
		MR:         mapreduce.DefaultConfig(),
	}
}

func TestProvisionAndRunJob(t *testing.T) {
	pl, svc := pool(1)
	var res workloads.WordcountResult
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		l, err := svc.Provision(p, request("tenant-a", 8))
		if err != nil {
			return err
		}
		defer l.Release()
		tp := tenantPlatform(pl, l)
		res, err = workloads.RunWordcount(p, tp, "/a/in", 256e6, 2, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Runtime <= 0 || len(res.Counts) == 0 {
		t.Fatalf("job did not run: %+v", res.Stats)
	}
}

// tenantPlatform views a lease through the core.Platform API so the
// workload helpers run unchanged on leased clusters.
func tenantPlatform(pl *core.Platform, l *cloud.Lease) *core.Platform {
	tp := *pl
	tp.VMs = l.VMs
	tp.Master = l.Master
	tp.DFS = l.DFS
	tp.MR = l.MR
	return &tp
}

func TestTwoTenantsShareThePool(t *testing.T) {
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		a, err := svc.Provision(p, request("tenant-a", 6))
		if err != nil {
			return err
		}
		b, err := svc.Provision(p, request("tenant-b", 6))
		if err != nil {
			return err
		}
		defer a.Release()
		defer b.Release()
		// Both tenants run concurrently.
		pa, pb := tenantPlatform(pl, a), tenantPlatform(pl, b)
		ja := pl.Engine.Spawn("job-a", func(q *sim.Proc) {
			if _, err := workloads.RunWordcount(q, pa, "/a/in", 128e6, 2, true); err != nil {
				q.Fail(err)
			}
		})
		jb := pl.Engine.Spawn("job-b", func(q *sim.Proc) {
			if _, err := workloads.RunWordcount(q, pb, "/b/in", 128e6, 2, true); err != nil {
				q.Fail(err)
			}
		})
		return sim.WaitProcs(p, ja, jb)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		// Two 32 GB machines hold at most 64 VMs of 1 GB.
		if _, err := svc.Provision(p, request("big", 60)); err != nil {
			return err
		}
		_, err := svc.Provision(p, request("overflow", 8))
		if !errors.Is(err, cloud.ErrInsufficientCapacity) {
			return fmt.Errorf("overflow request: err=%v, want ErrInsufficientCapacity", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		l, err := svc.Provision(p, request("first", 60))
		if err != nil {
			return err
		}
		l.Release()
		if !l.Released() {
			return fmt.Errorf("lease not marked released")
		}
		// The freed capacity must be reusable.
		_, err = svc.Provision(p, request("second", 60))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlacementPolicies provisions and releases a packed and a spread lease
// many times on one service. placeVMs walks the pool afresh on every call,
// so a walk in map order rather than pool order shows up as a packed VM off
// PMs[0] or a spread VM out of turn within a few rounds: with two machines a
// Go map visits the second first about one walk in eight.
func TestPlacementPolicies(t *testing.T) {
	const rounds = 64
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		for r := 0; r < rounds; r++ {
			packed, err := svc.Provision(p, request(fmt.Sprintf("packed%02d", r), 8))
			if err != nil {
				return err
			}
			for _, vm := range packed.VMs {
				if vm.Host() != pl.PMs[0] {
					return fmt.Errorf("round %d: pack policy placed %s on %s", r, vm.Name, vm.Host().Name)
				}
			}
			req := request(fmt.Sprintf("spread%02d", r), 8)
			req.Placement = cloud.Spread
			spread, err := svc.Provision(p, req)
			if err != nil {
				return err
			}
			for i, vm := range spread.VMs {
				if want := pl.PMs[i%len(pl.PMs)]; vm.Host() != want {
					return fmt.Errorf("round %d: spread policy placed %s on %s, want %s",
						r, vm.Name, vm.Host().Name, want.Name)
				}
			}
			packed.Release()
			spread.Release()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProvisionSkipsFailedMachine crashes the first machine of the pool:
// its memory is not capacity, so both policies place every VM, scaled out
// ones included, on the survivor, and a request the survivor alone cannot
// hold is refused as a capacity shortage.
func TestProvisionSkipsFailedMachine(t *testing.T) {
	for _, policy := range []cloud.Placement{cloud.Pack, cloud.Spread} {
		t.Run(policy.String(), func(t *testing.T) {
			pl, svc := pool(1)
			_, err := pl.Run(func(p *sim.Proc) error {
				defer svc.ReleaseAll()
				pl.Xen.CrashMachine(pl.PMs[0])
				req := request("survivor", 4)
				req.Placement = policy
				l, err := svc.Provision(p, req)
				if err != nil {
					return err
				}
				if err := l.ScaleOut(p, 2); err != nil {
					return err
				}
				for _, vm := range l.VMs {
					if vm.Host() != pl.PMs[1] {
						return fmt.Errorf("placed %s on %s", vm.Name, vm.Host().Name)
					}
				}
				// pm2 has 32 GB, 6 of them leased.
				big := request("big", 27)
				big.Placement = policy
				if _, err := svc.Provision(p, big); !errors.Is(err, cloud.ErrInsufficientCapacity) {
					return fmt.Errorf("27 VMs on 26 GB: err=%v, want ErrInsufficientCapacity", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBootChargesTime(t *testing.T) {
	pl, svc := pool(1)
	var cold, warm sim.Time
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		start := p.Now()
		req := request("booted", 4)
		req.Boot = true
		if _, err := svc.Provision(p, req); err != nil {
			return err
		}
		cold = p.Now() - start
		start = p.Now()
		if _, err := svc.Provision(p, request("instant", 4)); err != nil {
			return err
		}
		warm = p.Now() - start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold < 30 {
		t.Fatalf("booted provisioning took %v, want >= image fetch + boot", cold)
	}
	if warm > 1 {
		t.Fatalf("unbooted provisioning took %v", warm)
	}
}

func TestScaleOutSpeedsUpJobs(t *testing.T) {
	run := func(scale bool) sim.Time {
		pl, svc := pool(1)
		var rt sim.Time
		_, err := pl.Run(func(p *sim.Proc) error {
			defer svc.ReleaseAll()
			l, err := svc.Provision(p, request("elastic", 4))
			if err != nil {
				return err
			}
			defer l.Release()
			if scale {
				if err := l.ScaleOut(p, 8); err != nil {
					return err
				}
			}
			tp := tenantPlatform(pl, l)
			res, err := workloads.RunWordcount(p, tp, "/e/in", 1024e6, 4, true)
			rt = res.Stats.Runtime
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	smallCluster, scaled := run(false), run(true)
	if scaled >= smallCluster {
		t.Fatalf("scaled-out cluster (%v) not faster than 3 workers (%v)", scaled, smallCluster)
	}
}

func TestScaleInPreservesData(t *testing.T) {
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		l, err := svc.Provision(p, request("shrinking", 10))
		if err != nil {
			return err
		}
		defer l.Release()
		tp := tenantPlatform(pl, l)
		if _, err := tp.LoadText(p, "/s/data", 256e6, nil); err != nil {
			return err
		}
		if err := l.ScaleIn(p, 4); err != nil {
			return err
		}
		if got := len(l.Workers()); got != 5 {
			return fmt.Errorf("workers after scale-in = %d, want 5", got)
		}
		if ur := len(l.DFS.UnderReplicated()); ur != 0 {
			return fmt.Errorf("%d blocks under-replicated after drain", ur)
		}
		// All data still readable from a surviving node.
		_, err = l.DFS.Read(p, l.Workers()[0], "/s/data")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleInRefusesToRemoveAllWorkers(t *testing.T) {
	pl, svc := pool(1)
	_, err := pl.Run(func(p *sim.Proc) error {
		defer svc.ReleaseAll()
		l, err := svc.Provision(p, request("tiny", 3))
		if err != nil {
			return err
		}
		if err := l.ScaleIn(p, 2); err == nil {
			return fmt.Errorf("removing every worker succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTenantsContendForSharedResources(t *testing.T) {
	// The same job takes longer when a second tenant hammers the shared
	// filer at the same time: leases isolate capacity, not bandwidth.
	run := func(withNeighbor bool) sim.Time {
		pl, svc := pool(1)
		var rt sim.Time
		_, err := pl.Run(func(p *sim.Proc) error {
			defer svc.ReleaseAll()
			a, err := svc.Provision(p, request("a", 8))
			if err != nil {
				return err
			}
			if withNeighbor {
				b, err := svc.Provision(p, request("b", 8))
				if err != nil {
					return err
				}
				tb := tenantPlatform(pl, b)
				pl.Engine.Spawn("noisy-neighbor", func(q *sim.Proc) {
					for i := 0; i < 4; i++ {
						o := workloads.DFSIOOptions{Files: 7, FileBytes: 256e6, Dir: fmt.Sprintf("/noisy%d", i)}
						if _, err := workloads.RunDFSIOWrite(q, tb, o); err != nil {
							q.Fail(err)
						}
					}
				})
			}
			ta := tenantPlatform(pl, a)
			res, err := workloads.RunWordcount(p, ta, "/a/in", 512e6, 4, true)
			rt = res.Stats.Runtime
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	alone, contended := run(false), run(true)
	if contended <= alone {
		t.Fatalf("noisy neighbor had no effect: %v vs %v", contended, alone)
	}
}
