// Package backlog is the job-service load harness: it provisions a
// platform, registers a tenant population, submits a synthetic but fully
// deterministic job mix, runs the backlog to completion under the
// fair-share scheduler, and captures every comparable artifact — the
// per-tenant report, the observability snapshot and the span trace, which
// holds every service decision as an event. The determinism suite
// replays the same backlog across reruns and requires the artifacts
// byte-identical; the bench reuses the same harness to measure makespan,
// p99 wait and the Jain fairness index at scale.
package backlog

import (
	"errors"
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/faults"
	"vhadoop/internal/jobsvc"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// Options shapes one backlog run. The zero value is not runnable; fill at
// least Tenants and Jobs.
type Options struct {
	Nodes   int   // platform size (default 16)
	Seed    int64 // platform seed (default 1)
	Tenants int   // accounts; weights cycle 1..4 in registration order
	Jobs    int   // total submissions, round-robin over tenants

	// Config tunes the service under test (zero value = service defaults).
	Config jobsvc.Config

	// Uniform replaces the mixed job population with identical 16 MB
	// one-reduce wordcounts and drops priorities and deadlines, so every
	// tenant presents exactly the same demand. This is the fairness-bench
	// shape: with symmetric demand, any slot-share skew is the
	// scheduler's doing, and the weighted Jain index measures it.
	Uniform bool

	// Hardened provisions the chaos platform shape: cross-domain layout
	// and PM-aware triple replication with the replication monitor on, so
	// machine-level faults stay survivable.
	Hardened bool

	// FaultsAfterStart is a fault schedule whose At times are relative to
	// the instant the scheduler starts (after the whole backlog is staged
	// and queued), so faults land mid-execution regardless of how long
	// staging took.
	FaultsAfterStart faults.Schedule
}

// Result is everything one backlog run produced. Every string field is
// byte-reproducible for a fixed Options value.
type Result struct {
	Report  string // jobsvc canonical per-tenant report
	Metrics string // observability registry snapshot (Prometheus text)
	Spans   string // full span trace (JSON)

	End      sim.Time // virtual end of the run
	Makespan sim.Time // scheduler start -> backlog drained
	P99Wait  sim.Time
	Jain     float64

	Admitted    int
	Rejected    int
	Backfills   int
	Preemptions int
	Stats       []jobsvc.TenantStats
}

// tenantName names account i; registration order is part of the schedule.
func tenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// wcSizes are the wordcount footprints the mix cycles through: three
// single-map sizes and one two-map size.
var wcSizes = [4]float64{8e6, 16e6, 48e6, 96e6}

// specFor derives job j's workload from its index alone — no RNG, so the
// mix is trivially identical across reruns. Every 13th
// job is a slot-free DFSIO pair (backfill fodder); the rest are small
// wordcounts whose inputs are shared per (tenant, size) so staging cost
// stays bounded by the tenant population. The size index folds in the
// round number (j / tenants) so that under round-robin submission every
// tenant cycles through every size — job weight must not correlate with
// tenant weight, or fairness measurements confound the two.
func specFor(o Options, j int, tenant string) workloads.Spec {
	if o.Uniform {
		return workloads.WordcountSpec{
			Input:     fmt.Sprintf("/backlog/%s/u", tenant),
			SizeBytes: 16e6,
			Reduces:   1,
			RealLines: 8,
		}
	}
	if j%13 == 7 {
		return workloads.DFSIOSpec{Options: workloads.DFSIOOptions{
			Files: 2, FileBytes: 2e6, Dir: fmt.Sprintf("/backlog/io/j%05d", j),
		}}
	}
	si := (j + j/o.Tenants) % len(wcSizes)
	return workloads.WordcountSpec{
		Input:     fmt.Sprintf("/backlog/%s/s%d", tenant, si),
		SizeBytes: wcSizes[si],
		Reduces:   1 + (j/3)%2,
		RealLines: 8,
	}
}

// submitOpts derives job j's submission options: a sprinkling of raised
// priorities and deadlines so the ordering paths all run under load.
func submitOpts(o Options, j int, now sim.Time) []jobsvc.SubmitOption {
	opts := []jobsvc.SubmitOption{jobsvc.WithoutOutput()}
	if o.Uniform {
		return opts
	}
	switch j % 9 {
	case 4:
		opts = append(opts, jobsvc.WithPriority(1))
	case 7:
		opts = append(opts, jobsvc.WithPriority(2))
	}
	if j%6 == 1 {
		opts = append(opts, jobsvc.WithDeadline(now+400+sim.Time(j%7)*120))
	}
	return opts
}

// platformOpts builds the platform for one run.
func platformOpts(o Options) core.Options {
	opts := core.DefaultOptions()
	if o.Nodes > 0 {
		opts.Nodes = o.Nodes
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	if o.Hardened {
		opts.Layout = core.CrossDomain
		opts.HDFS.PMAware = true
		opts.HDFS.Replication = 3
		opts.HDFS.ReplMonitorInterval = 15
	}
	return opts
}

// Run provisions the platform, queues the whole backlog, starts the
// scheduler, installs any faults relative to that instant, and drains.
// Admission rejects are counted, not fatal; any other error aborts.
func Run(o Options) (Result, error) {
	if o.Tenants <= 0 || o.Jobs <= 0 {
		return Result{}, fmt.Errorf("backlog: need Tenants and Jobs, got %d x %d", o.Tenants, o.Jobs)
	}
	pl := core.MustNewPlatform(platformOpts(o))
	var inj *faults.Injector
	if len(o.FaultsAfterStart.Faults) > 0 {
		inj = faults.NewInjector(pl)
	}
	svc := jobsvc.New(pl, o.Config)
	for i := 0; i < o.Tenants; i++ {
		if err := svc.Register(tenantName(i), float64(1+i%4)); err != nil {
			return Result{}, err
		}
	}
	var res Result
	var startAt sim.Time
	end, err := pl.Run(func(p *sim.Proc) error {
		for j := 0; j < o.Jobs; j++ {
			tn := tenantName(j % o.Tenants)
			_, err := svc.Submit(p, tn, specFor(o, j, tn), submitOpts(o, j, p.Now())...)
			switch {
			case err == nil:
				res.Admitted++
			case errors.Is(err, jobsvc.ErrQueueFull), errors.Is(err, jobsvc.ErrCapacity):
				res.Rejected++
			default:
				return fmt.Errorf("backlog: submitting job %d: %w", j, err)
			}
		}
		startAt = p.Now()
		if inj != nil {
			shifted := faults.Schedule{Faults: make([]faults.Fault, len(o.FaultsAfterStart.Faults))}
			copy(shifted.Faults, o.FaultsAfterStart.Faults)
			for i := range shifted.Faults {
				shifted.Faults[i].At += startAt
			}
			if err := inj.Install(shifted); err != nil {
				return err
			}
		}
		svc.Start()
		svc.Drain(p)
		res.Makespan = p.Now() - startAt
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res.Report = svc.Report()
	res.Metrics = pl.Obs.Snapshot().PrometheusText()
	res.Spans = pl.Obs.Tracer().JSON()
	res.End = end
	res.P99Wait = svc.P99Wait()
	res.Jain = svc.Jain()
	res.Backfills = svc.Backfills()
	res.Preemptions = svc.Preemptions()
	res.Stats = svc.Stats()
	return res, nil
}
