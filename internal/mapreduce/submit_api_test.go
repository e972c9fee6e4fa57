package mapreduce_test

import (
	"errors"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// TestDoubleWaitAndWaitAfterKill pins the Wait contract of the redesigned
// submission API: killing a job unblocks waiters with ErrJobKilled and
// terminal timestamps, and every subsequent Wait returns the same pair.
func TestDoubleWaitAndWaitAfterKill(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(5, core.Normal))
	var first, second mapreduce.JobStats
	var err1, err2 error
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 128e6, lineRecords(testLines, 32e6)); err != nil {
			return err
		}
		h, err := pl.MR.Submit(p, wordcountJob("/in", "/out", 2, false),
			mapreduce.WithTenant("acct"))
		if err != nil {
			return err
		}
		pl.Engine.Spawn("killer", func(q *sim.Proc) {
			for {
				if m, _ := pl.MR.TenantLedger("acct").Running(); m > 0 {
					break
				}
				if h.Done() {
					return
				}
				q.Sleep(1)
			}
			h.Kill()
			h.Kill() // killing a finished job is a no-op
		})
		first, err1 = h.Wait(p)
		second, err2 = h.Wait(p) // must not block and must agree
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(err1, mapreduce.ErrJobKilled) {
		t.Fatalf("first Wait err = %v, want ErrJobKilled", err1)
	}
	if err2 != err1 {
		t.Fatalf("second Wait err = %v, want same as first (%v)", err2, err1)
	}
	if first != second {
		t.Fatalf("double Wait disagrees:\nfirst  %+v\nsecond %+v", first, second)
	}
	if first.Finished <= 0 || first.Runtime < 0 {
		t.Fatalf("killed job missing terminal timestamps: %+v", first)
	}
	if first.Tenant != "acct" {
		t.Fatalf("stats.Tenant = %q, want acct", first.Tenant)
	}
	if m, r := pl.MR.TenantLedger("acct").Running(); m != 0 || r != 0 {
		t.Fatalf("tenant slot ledger not drained after kill: maps=%d reduces=%d", m, r)
	}
}

// TestWaitAfterFailReturnsStoredError checks the same contract for a job
// that fails on its own — every tasktracker is decommissioned mid-run with
// MaxAttempts exhausted, so the requeue path fails the job. The stored
// error must come back identically from repeated Waits.
func TestWaitAfterFailReturnsStoredError(t *testing.T) {
	opts := smallOpts(5, core.Normal)
	opts.MR.MaxAttempts = 1
	pl := core.MustNewPlatform(opts)
	var errs [2]error
	var stats [2]mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords(testLines, 16e6)); err != nil {
			return err
		}
		h, err := pl.MR.Submit(p, wordcountJob("/in", "", 1, false),
			mapreduce.WithTenant("doomed"))
		if err != nil {
			return err
		}
		pl.Engine.Spawn("saboteur", func(q *sim.Proc) {
			for {
				if m, _ := pl.MR.TenantLedger("doomed").Running(); m > 0 {
					break
				}
				if h.Done() {
					return
				}
				q.Sleep(1)
			}
			for _, tr := range pl.MR.Trackers() {
				pl.MR.DecommissionTracker(tr)
			}
		})
		stats[0], errs[0] = h.Wait(p)
		stats[1], errs[1] = h.Wait(p)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("failed job Wait errors = %v, %v; want both non-nil", errs[0], errs[1])
	}
	if errs[0] != errs[1] {
		t.Fatalf("Wait-after-fail returned different errors: %v vs %v", errs[0], errs[1])
	}
	if stats[0] != stats[1] {
		t.Fatalf("Wait-after-fail stats disagree:\nfirst  %+v\nsecond %+v", stats[0], stats[1])
	}
	if stats[0].Finished <= 0 {
		t.Fatalf("failed job missing terminal timestamp: %+v", stats[0])
	}
}

// TestPreemptTenantRequeuesWithoutBurningBudget preempts a running map of a
// tenant's job and checks the job still completes correctly — the preempted
// attempt requeues without consuming MaxAttempts budget.
func TestPreemptTenantRequeuesWithoutBurningBudget(t *testing.T) {
	opts := smallOpts(5, core.Normal)
	opts.MR.MaxAttempts = 1 // a preemption charged as a failure would kill the job
	pl := core.MustNewPlatform(opts)
	preempted := 0
	var stats mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 128e6, lineRecords(testLines, 32e6)); err != nil {
			return err
		}
		h, err := pl.MR.Submit(p, wordcountJob("/in", "/out", 2, false),
			mapreduce.WithTenant("victim"))
		if err != nil {
			return err
		}
		pl.Engine.Spawn("preemptor", func(q *sim.Proc) {
			for {
				if m, _ := pl.MR.TenantLedger("victim").Running(); m > 0 {
					break
				}
				if h.Done() {
					return
				}
				q.Sleep(1)
			}
			preempted = pl.MR.PreemptTenant("victim", mapreduce.MapTask, 1)
		})
		stats, err = h.Wait(p)
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if preempted != 1 {
		t.Fatalf("preempted = %d, want 1", preempted)
	}
	if stats.Attempts <= stats.MapTasks+stats.ReduceTasks {
		t.Fatalf("attempts = %d with %d tasks: preempted attempt not re-executed",
			stats.Attempts, stats.MapTasks+stats.ReduceTasks)
	}
	if stats.MapSeconds <= 0 || stats.ReduceSeconds <= 0 {
		t.Fatalf("slot-second accounting missing: map=%v reduce=%v", stats.MapSeconds, stats.ReduceSeconds)
	}
}

// TestPriorityJumpsQueue submits a low-priority wide job followed by a
// high-priority narrow one and expects the latecomer to finish first: its
// tasks are inserted ahead of the pending backlog.
func TestPriorityJumpsQueue(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(3, core.Normal)) // 2 workers, 4 map slots
	var wide, narrow mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 256e6, lineRecords(testLines, 64e6)); err != nil {
			return err
		}
		wideSpec := wordcountJob("/in", "", 0, false)
		wideSpec.Name, wideSpec.NumMaps = "wide", 16
		narrowSpec := wordcountJob("/in", "", 0, false)
		narrowSpec.Name, narrowSpec.NumMaps = "narrow", 2
		hw, err := pl.MR.Submit(p, wideSpec)
		if err != nil {
			return err
		}
		hn, err := pl.MR.Submit(p, narrowSpec, mapreduce.WithPriority(10))
		if err != nil {
			return err
		}
		if wide, err = hw.Wait(p); err != nil {
			return err
		}
		narrow, err = hn.Wait(p)
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if narrow.Finished >= wide.Finished {
		t.Fatalf("high-priority job finished at %v, after the wide backlog job at %v",
			narrow.Finished, wide.Finished)
	}
}

// TestWithCollectOutputOff keeps counters but drops the record payloads.
func TestWithCollectOutputOff(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(5, core.Normal))
	var stats mapreduce.JobStats
	var records int
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords(testLines, 16e6)); err != nil {
			return err
		}
		h, err := pl.MR.Submit(p, wordcountJob("/in", "/out", 2, false),
			mapreduce.WithCollectOutput(false))
		if err != nil {
			return err
		}
		if stats, err = h.Wait(p); err != nil {
			return err
		}
		records = len(h.OutputRecords())
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if records != 0 {
		t.Fatalf("OutputRecords returned %d records with collection off", records)
	}
	if stats.OutputRecords == 0 || stats.OutputBytes == 0 {
		t.Fatalf("output counters lost with collection off: %+v", stats)
	}
}
