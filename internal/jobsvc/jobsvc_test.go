package jobsvc_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/jobsvc"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
	"vhadoop/internal/xen"
)

// testOpts is a small deterministic platform.
func testOpts(nodes int, seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Nodes = nodes
	opts.Seed = seed
	return opts
}

// tinyWC is a one-map one-reduce wordcount over its own input file.
func tinyWC(name string) workloads.WordcountSpec {
	return workloads.WordcountSpec{Input: "/jsvc/" + name, SizeBytes: 8e6, Reduces: 1, RealLines: 8}
}

// wideWC is a wordcount whose map demand exceeds any test cluster.
func wideWC(name string) workloads.WordcountSpec {
	return workloads.WordcountSpec{Input: "/jsvc/" + name, SizeBytes: 1024e6, Reduces: 1, RealLines: 64}
}

func TestAdmissionControl(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 7))
	svc := jobsvc.New(pl, jobsvc.Config{MaxQueued: 2, CapacityBytes: 400e6})
	if err := svc.Register("acct", 1); err != nil {
		t.Fatal(err)
	}
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := svc.Submit(p, "ghost", tinyWC("g0")); !errors.Is(err, jobsvc.ErrUnknownTenant) {
			return fmt.Errorf("unknown tenant err = %v", err)
		}
		tk1, err := svc.Submit(p, "acct", tinyWC("a0"))
		if err != nil {
			return fmt.Errorf("first submit: %v", err)
		}
		tk2, err := svc.Submit(p, "acct", tinyWC("a1"))
		if err != nil {
			return fmt.Errorf("second submit: %v", err)
		}
		// The service is not Started yet, so the backlog cannot drain
		// between submissions and the queue cap is deterministic.
		if _, err := svc.Submit(p, "acct", tinyWC("a2")); !errors.Is(err, jobsvc.ErrQueueFull) {
			return fmt.Errorf("over-cap submit err = %v", err)
		}
		if _, err := svc.Submit(p, "acct", wideWC("big")); !errors.Is(err, jobsvc.ErrQueueFull) {
			// Queue cap is checked before capacity.
			return fmt.Errorf("queued big submit err = %v", err)
		}
		svc.Start()
		svc.Drain(p)
		if _, err := svc.Submit(p, "acct", wideWC("big")); !errors.Is(err, jobsvc.ErrCapacity) {
			return fmt.Errorf("capacity reject err = %v", err)
		}
		for i, tk := range []*jobsvc.Ticket{tk1, tk2} {
			res, err := tk.Wait(p)
			if err != nil {
				return fmt.Errorf("job %d: %v", i, err)
			}
			if res.Workload != "wordcount" || len(res.Output) == 0 {
				return fmt.Errorf("job %d result: %+v", i, res)
			}
		}
		// Both admitted jobs ended done, not failed.
		stats := svc.Stats()[0]
		if stats.Submitted != 2 || stats.Completed != 2 || stats.Rejected != 3 {
			return fmt.Errorf("tenant stats = %+v", stats)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// errStage is the staging failure of failingStage.
var errStage = errors.New("staging failed")

// failingStage is a wordcount whose staging always fails.
type failingStage struct{ workloads.WordcountSpec }

func (failingStage) Stage(*sim.Proc, *core.Platform) error { return errStage }

// A submission whose staging fails is never admitted: Submit returns the
// staging error, nothing is queued or counted, and the capacity it
// committed before staging is refunded, so a later submission that fits
// the budget only without it is admitted and runs.
func TestFailedStagingIsNotAdmitted(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 7))
	svc := jobsvc.New(pl, jobsvc.Config{MaxQueued: 1, CapacityBytes: 400e6})
	if err := svc.Register("acct", 1); err != nil {
		t.Fatal(err)
	}
	_, err := pl.Run(func(p *sim.Proc) error {
		bad := failingStage{workloads.WordcountSpec{Input: "/jsvc/bad", SizeBytes: 395e6, Reduces: 1}}
		if _, err := svc.Submit(p, "acct", bad); !errors.Is(err, errStage) {
			return fmt.Errorf("failed staging err = %v", err)
		}
		if stats := svc.Stats()[0]; stats.Submitted != 0 || stats.Rejected != 0 {
			return fmt.Errorf("tenant stats after the failed staging = %+v", stats)
		}
		// 8 MB fits the 400 MB budget only if the 395 MB is refunded, and
		// the one-job queue only if the failed job is not in it.
		tk, err := svc.Submit(p, "acct", tinyWC("good"))
		if err != nil {
			return fmt.Errorf("later submit: %v", err)
		}
		svc.Start()
		svc.Drain(p)
		if _, err := tk.Wait(p); err != nil {
			return fmt.Errorf("later job: %v", err)
		}
		if stats := svc.Stats()[0]; stats.Submitted != 1 || stats.Completed != 1 {
			return fmt.Errorf("tenant stats = %+v", stats)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedFairShare(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 11))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
	if err := svc.Register("gold", 3); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("bronze", 1); err != nil {
		t.Fatal(err)
	}
	_, err := pl.Run(func(p *sim.Proc) error {
		for i := 0; i < 12; i++ {
			if _, err := svc.Submit(p, "gold", tinyWC(fmt.Sprintf("g%d", i)), jobsvc.WithoutOutput()); err != nil {
				return err
			}
			if _, err := svc.Submit(p, "bronze", tinyWC(fmt.Sprintf("b%d", i)), jobsvc.WithoutOutput()); err != nil {
				return err
			}
		}
		svc.Start()
		svc.Drain(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	gold, bronze := stats[0], stats[1]
	if gold.Completed != 12 || bronze.Completed != 12 {
		t.Fatalf("completions: gold %d bronze %d", gold.Completed, bronze.Completed)
	}
	if gold.ContendedReservedSlotSeconds == 0 || bronze.ContendedReservedSlotSeconds == 0 {
		t.Fatalf("no contended usage recorded: %+v %+v", gold, bronze)
	}
	// Compare the reservation integrals — the quantity fair share
	// allocates. Cluster occupancy echoes it too noisily for a tight
	// bound (reduce slots idle in shuffle still count as occupied).
	ratio := gold.ContendedReservedSlotSeconds / bronze.ContendedReservedSlotSeconds
	if ratio < 1.8 || ratio > 5 {
		t.Fatalf("contended reserved slot-second ratio = %.2f, want ~3 for 3:1 weights", ratio)
	}
	if j := svc.Jain(); j < 0.9 {
		t.Fatalf("weighted Jain index = %.3f, want >= 0.9", j)
	}
}

func TestBackfillJumpsBlockedHead(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(3, 13))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2, Backfill: true})
	if err := svc.Register("batch", 1); err != nil {
		t.Fatal(err)
	}
	_, err := pl.Run(func(p *sim.Proc) error {
		// Two cluster-wide jobs on one tenant: the first takes every slot,
		// the second blocks as that tenant's queue head. (A second tenant
		// would not do: its idle account makes it the fair-share head and
		// its job dispatches on the normal path, not as a backfill.)
		if _, err := svc.Submit(p, "batch", wideWC("w0")); err != nil {
			return err
		}
		if _, err := svc.Submit(p, "batch", wideWC("w1")); err != nil {
			return err
		}
		// A slot-free DFSIO job fits the (zero) leftover demand and must
		// jump the blocked head.
		tk, err := svc.Submit(p, "batch", workloads.DFSIOSpec{Options: workloads.DFSIOOptions{Files: 2, FileBytes: 2e6}})
		if err != nil {
			return err
		}
		svc.Start()
		svc.Drain(p)
		if _, err := tk.Wait(p); err != nil {
			return fmt.Errorf("backfilled job failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Backfills() == 0 {
		t.Fatal("no backfill happened")
	}
}

func TestPreemptionUnblocksStarvingTenant(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(3, 17))
	svc := jobsvc.New(pl, jobsvc.Config{
		Tick: 2, Preemption: true, StarveWait: 10, MaxPreemptPerTick: 2,
	})
	if err := svc.Register("hog", 1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("vip", 4); err != nil {
		t.Fatal(err)
	}
	_, err := pl.Run(func(p *sim.Proc) error {
		hogTk, err := svc.Submit(p, "hog", wideWC("hog"))
		if err != nil {
			return err
		}
		vipTk, err := svc.Submit(p, "vip", wideWC("vip"))
		if err != nil {
			return err
		}
		svc.Start()
		svc.Drain(p)
		if _, err := hogTk.Wait(p); err != nil {
			return fmt.Errorf("hog job should survive preemption: %v", err)
		}
		if _, err := vipTk.Wait(p); err != nil {
			return fmt.Errorf("vip job failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Preemptions() == 0 {
		t.Fatal("no slots were preempted")
	}
	if svc.Stats()[0].Preempted == 0 {
		t.Fatalf("hog lost no attempts: %+v", svc.Stats()[0])
	}
}

func TestDeadlineOrdering(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(2, 19))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
	if err := svc.Register("acct", 1); err != nil {
		t.Fatal(err)
	}
	// One worker means one job runs at a time, so completion order is
	// dispatch order: earliest deadline, later deadline, then deadline-less.
	var order []string
	_, err := pl.Run(func(p *sim.Proc) error {
		track := func(name string, tk *jobsvc.Ticket) {
			pl.Engine.Spawn("track:"+name, func(q *sim.Proc) {
				if _, err := tk.Wait(q); err == nil {
					order = append(order, name)
				}
			})
		}
		none, err := svc.Submit(p, "acct", tinyWC("none"))
		if err != nil {
			return err
		}
		late, err := svc.Submit(p, "acct", tinyWC("late"), jobsvc.WithDeadline(4000))
		if err != nil {
			return err
		}
		soon, err := svc.Submit(p, "acct", tinyWC("soon"), jobsvc.WithDeadline(2000))
		if err != nil {
			return err
		}
		track("none", none)
		track("late", late)
		track("soon", soon)
		svc.Start()
		svc.Drain(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "soon" || order[1] != "late" || order[2] != "none" {
		t.Fatalf("completion order = %v, want [soon late none]", order)
	}
	st := svc.Stats()[0]
	if st.DeadlinesMissed != 0 {
		t.Fatalf("deadlines missed = %d", st.DeadlinesMissed)
	}
}

func TestQuotaCapsConcurrency(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 23))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
	if err := svc.Register("capped", 1, jobsvc.WithQuota(1, 1)); err != nil {
		t.Fatal(err)
	}
	maxRunning := 0.0
	_, err := pl.Run(func(p *sim.Proc) error {
		for i := 0; i < 4; i++ {
			if _, err := svc.Submit(p, "capped", tinyWC(fmt.Sprintf("q%d", i)), jobsvc.WithoutOutput()); err != nil {
				return err
			}
		}
		svc.Start()
		drained := false
		// Jobs dispatch only inside scheduler ticks, and each tick ends by
		// publishing the running-job count, so sampling the gauge between
		// ticks sees every peak.
		pl.Engine.Spawn("watcher", func(q *sim.Proc) {
			for !drained {
				if r, _ := pl.Obs.Snapshot().Value("jobsvc_running_jobs"); r > maxRunning {
					maxRunning = r
				}
				q.Sleep(1)
			}
		})
		svc.Drain(p)
		drained = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxRunning != 1 {
		t.Fatalf("max concurrent jobs = %v, want 1 under quota (1,1)", maxRunning)
	}
	if svc.Stats()[0].Completed != 4 {
		t.Fatalf("completed = %d", svc.Stats()[0].Completed)
	}
}

// TestServiceRunningCap pins the service-wide running-job cap. DFSIO jobs
// demand no slots, so only the cap holds them back: of 40 queued at once,
// exactly 32 run together, and the other 8 run as slots of the cap free.
func TestServiceRunningCap(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 31))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
	if err := svc.Register("acct", 1); err != nil {
		t.Fatal(err)
	}
	const jobs = 40
	peak := 0.0
	_, err := pl.Run(func(p *sim.Proc) error {
		for i := 0; i < jobs; i++ {
			spec := workloads.DFSIOSpec{Options: workloads.DFSIOOptions{Files: 1, FileBytes: 1e6, Dir: fmt.Sprintf("/dfsio/%02d", i)}}
			if dm, dr := spec.Demand(); dm != 0 || dr != 0 {
				return fmt.Errorf("DFSIO demand = (%d, %d), want no slots", dm, dr)
			}
			if _, err := svc.Submit(p, "acct", spec); err != nil {
				return err
			}
		}
		svc.Start()
		drained := false
		// As in TestQuotaCapsConcurrency, each tick ends by publishing the
		// running-job count, so sampling between ticks sees every peak.
		pl.Engine.Spawn("watcher", func(q *sim.Proc) {
			for !drained {
				if r, _ := pl.Obs.Snapshot().Value("jobsvc_running_jobs"); r > peak {
					peak = r
				}
				q.Sleep(1)
			}
		})
		svc.Drain(p)
		drained = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 32 {
		t.Fatalf("peak running jobs = %v, want the cap of 32", peak)
	}
	if st := svc.Stats()[0]; st.Completed != jobs {
		t.Fatalf("completed = %d of %d", st.Completed, jobs)
	}
}

// TestLocalityBreaksTies submits two jobs that tie on deadline (none) and
// priority (default) under a one-job-at-a-time quota. With both inputs
// equally local the earlier submission wins; once the tasktracker beside
// the first job's only input replica is out of service, the locality
// tie-break — and nothing else — must pick the second job instead.
func TestLocalityBreaksTies(t *testing.T) {
	firstRunning := func(decommission bool) (string, error) {
		opts := testOpts(5, 29)
		opts.HDFS.Replication = 1
		pl := core.MustNewPlatform(opts)
		svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
		if err := svc.Register("acct", 1, jobsvc.WithQuota(1, 1)); err != nil {
			return "", err
		}
		first := ""
		_, err := pl.Run(func(p *sim.Proc) error {
			// Replication is 1 and placement random: stage inputs until two
			// sit on different datanodes, whatever the placement RNG does.
			holder := func(name string) (*xen.VM, error) {
				if err := tinyWC(name).Stage(p, pl); err != nil {
					return nil, err
				}
				f, err := pl.DFS.Lookup("/jsvc/" + name)
				if err != nil {
					return nil, err
				}
				return f.Blocks[0].Replicas[0].VM, nil
			}
			va, err := holder("a")
			if err != nil {
				return err
			}
			other := ""
			for i := 0; i < 16 && other == ""; i++ {
				name := fmt.Sprintf("b%d", i)
				vb, err := holder(name)
				if err != nil {
					return err
				}
				if vb != va {
					other = name
				}
			}
			if other == "" {
				return fmt.Errorf("16 inputs all landed on %s", va.Name)
			}
			if _, err := svc.Submit(p, "acct", tinyWC("a"), jobsvc.WithoutOutput()); err != nil {
				return err
			}
			if _, err := svc.Submit(p, "acct", tinyWC(other), jobsvc.WithoutOutput()); err != nil {
				return err
			}
			if decommission {
				for _, tr := range pl.MR.Trackers() {
					if tr.VM == va {
						pl.MR.DecommissionTracker(tr)
					}
				}
			}
			svc.Start()
			p.Sleep(1) // the scheduler's first tick runs at the current instant
			// Jobs take ids in admission order: a is job 1, b is job 2.
			var dispatched []string
			for _, ev := range pl.Obs.Tracer().Export().Events {
				if strings.HasPrefix(ev.Msg, "dispatch ") {
					dispatched = append(dispatched, ev.Msg)
				}
			}
			switch {
			case len(dispatched) != 1:
				return fmt.Errorf("after one tick %d jobs dispatched (%q), want exactly one", len(dispatched), dispatched)
			case strings.HasPrefix(dispatched[0], "dispatch acct job 1 "):
				first = "a"
			case strings.HasPrefix(dispatched[0], "dispatch acct job 2 "):
				first = "b"
			default:
				return fmt.Errorf("unexpected dispatch %q", dispatched[0])
			}
			svc.Drain(p)
			return nil
		})
		return first, err
	}
	if first, err := firstRunning(false); err != nil || first != "a" {
		t.Fatalf("equal locality: first dispatched = %q (err %v), want a by submission order", first, err)
	}
	if first, err := firstRunning(true); err != nil || first != "b" {
		t.Fatalf("a's holder out of service: first dispatched = %q (err %v), want b by locality", first, err)
	}
}

// TestNilPickFallsThroughToNextTenant gives the lowest-share tenant a
// queue whose only job breaks its quota, so that tenant has nothing to
// dispatch. The scheduler must pass it over and serve the next tenant in
// share order within the same tick. No benchmark backlog sets a quota, so
// this is the only coverage of that path.
func TestNilPickFallsThroughToNextTenant(t *testing.T) {
	pl := core.MustNewPlatform(testOpts(5, 31))
	svc := jobsvc.New(pl, jobsvc.Config{Tick: 2})
	// a registers first, so it would win even a tie on share.
	if err := svc.Register("a", 1, jobsvc.WithQuota(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("b", 1); err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	_, err := pl.Run(func(p *sim.Proc) error {
		// b runs one job first, so b has accumulated service and a has none:
		// a's dominant share is the strictly lower one.
		if _, err := svc.Submit(p, "b", tinyWC("b0"), jobsvc.WithoutOutput()); err != nil {
			return err
		}
		svc.Start()
		svc.Drain(p)
		p.Sleep(10) // the idle scheduler parks
		// Stage both inputs first, so the two submissions below land at one
		// instant, ahead of the tick the first of them revives.
		for _, spec := range []workloads.WordcountSpec{wideWC("a0"), tinyWC("b1")} {
			if err := spec.Stage(p, pl); err != nil {
				return err
			}
		}
		skip := len(pl.Obs.Tracer().Export().Events)
		// a's job wants more map slots than a's quota of 1: a's pick is nil.
		if _, err := svc.Submit(p, "a", wideWC("a0"), jobsvc.WithoutOutput()); err != nil {
			return err
		}
		if _, err := svc.Submit(p, "b", tinyWC("b1"), jobsvc.WithoutOutput()); err != nil {
			return err
		}
		p.Sleep(1) // the revived scheduler's first tick runs at the current instant
		for _, ev := range pl.Obs.Tracer().Export().Events[skip:] {
			if strings.HasPrefix(ev.Msg, "dispatch ") {
				dispatched = append(dispatched, ev.Msg)
			}
		}
		svc.Drain(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs take ids in admission order: b0 is job 1, a0 job 2, b1 job 3.
	if len(dispatched) != 1 || !strings.HasPrefix(dispatched[0], "dispatch b job 3 ") {
		t.Fatalf("tick after the submissions dispatched %q, want only b's job 3", dispatched)
	}
	a, b := svc.Stats()[0], svc.Stats()[1]
	if a.ReservedSlotSeconds != 0 || b.ReservedSlotSeconds == 0 {
		t.Fatalf("reserved slot-seconds a %v b %v: a's share must be the lower", a.ReservedSlotSeconds, b.ReservedSlotSeconds)
	}
	// With nothing else left, a's job is failed as unschedulable.
	if a.Failed != 1 || b.Completed != 2 {
		t.Fatalf("a failed %d, b completed %d; want 1 and 2", a.Failed, b.Completed)
	}
}
