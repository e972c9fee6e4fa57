package jobsvc

import (
	"errors"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// TestSchedulerRestartsAfterIdle pins the scheduler's re-arm: once the
// backlog drains the scheduler goes idle, and a job submitted off the old
// tick grid a few ticks later starts a fresh round of ticks at its
// submission time.
func TestSchedulerRestartsAfterIdle(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Nodes = 5
	opts.Seed = 7
	pl := core.MustNewPlatform(opts)
	svc := New(pl, Config{})
	if err := svc.Register("acct", 1); err != nil {
		t.Fatal(err)
	}
	spec := func(name string) workloads.WordcountSpec {
		return workloads.WordcountSpec{Input: "/jsvc/" + name, SizeBytes: 8e6, Reduces: 1, RealLines: 8}
	}
	var first, late *Job
	_, err := pl.Run(func(p *sim.Proc) error {
		svc.Start()
		tk, err := svc.Submit(p, "acct", spec("early"))
		if err != nil {
			return err
		}
		first = tk.j
		svc.Drain(p)
		p.Sleep(2.5 * svc.cfg.Tick)
		if svc.schedRunning {
			return errors.New("scheduler still running 2.5 ticks after the backlog drained")
		}
		tk, err = svc.Submit(p, "acct", spec("late"))
		if err != nil {
			return err
		}
		late = tk.j
		_, err = tk.Wait(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want sim.Time
	}{
		{"first dispatch", first.started, 0.17602},
		{"first finish", first.finished, 7.362556994285713},
		{"late submit", late.submitted, 13.352039999999999},
		{"late dispatch", late.started, 13.352039999999999},
		{"late finish", late.finished, 22.362658274285714},
	} {
		if c.got != c.want {
			t.Errorf("%s at %v, want %v", c.what, c.got, c.want)
		}
	}
}
