package experiments

import (
	"fmt"

	"vhadoop/internal/jobsvc"
	"vhadoop/internal/jobsvc/backlog"
)

// Job-service study -----------------------------------------------------------
//
// The paper's evaluation runs one benchmark at a time against a dedicated
// cluster; the job-service study instead measures the platform as a shared
// multi-tenant facility. Two backlog shapes run through the fair-share
// scheduler:
//
//   - mixed: the acceptance-scale backlog (asymmetric wordcount sizes,
//     DFSIO backfill fodder, priorities and deadlines). It reports the
//     throughput numbers — makespan and p99 job wait.
//   - uniform: every tenant submits identical jobs, so any slot-share skew
//     is the scheduler's own doing. It reports the fairness number — the
//     weighted Jain index over contended reserved slot-seconds.

// JobsvcShape is one measured backlog shape.
type JobsvcShape struct {
	Name   string
	Opts   backlog.Options
	Result backlog.Result
}

// JobsvcResult is the full job-service study.
type JobsvcResult struct {
	Mixed   JobsvcShape
	Uniform JobsvcShape
}

// jobsvcBacklog builds the study's backlog options for a shape.
func jobsvcBacklog(cfg Config, uniform bool) backlog.Options {
	o := backlog.Options{
		Nodes:   cfg.Nodes,
		Seed:    42,
		Tenants: 100,
		Jobs:    1000,
		Uniform: uniform,
		Config: jobsvc.Config{
			Tick: 2, Backfill: true, Preemption: true,
			StarveWait: 40, MaxPreemptPerTick: 2,
		},
	}
	if cfg.Quick {
		o.Tenants = 20
		o.Jobs = 200
	}
	if cfg.Seed != 0 {
		o.Seed = cfg.Seed
	}
	return o
}

// RunJobsvc runs both backlog shapes. The backlog is fully deterministic
// for a fixed Config, so no repetition averaging applies — reruns
// reproduce the same artifacts byte-for-byte.
func RunJobsvc(cfg Config) (JobsvcResult, error) {
	res := JobsvcResult{Mixed: JobsvcShape{Name: "mixed"}, Uniform: JobsvcShape{Name: "uniform"}}
	for _, s := range []*JobsvcShape{&res.Mixed, &res.Uniform} {
		s.Opts = jobsvcBacklog(cfg, s == &res.Uniform)
		var err error
		if s.Result, err = backlog.Run(s.Opts); err != nil {
			return JobsvcResult{}, fmt.Errorf("%s backlog: %w", s.Name, err)
		}
	}
	return res, nil
}

// Table renders both shapes side by side.
func (r JobsvcResult) Table() string {
	return tableOf(
		[]string{"Shape", "Tenants", "Jobs", "Admitted", "Makespan (s)", "p99 wait (s)", "Jain", "Backfills", "Preempts"},
		[]JobsvcShape{r.Mixed, r.Uniform},
		func(s JobsvcShape) []string {
			return []string{
				s.Name,
				fmt.Sprintf("%d", s.Opts.Tenants),
				fmt.Sprintf("%d", s.Opts.Jobs),
				fmt.Sprintf("%d", s.Result.Admitted),
				secs(s.Result.Makespan),
				secs(s.Result.P99Wait),
				fmt.Sprintf("%.3f", s.Result.Jain),
				fmt.Sprintf("%d", s.Result.Backfills),
				fmt.Sprintf("%d", s.Result.Preemptions),
			}
		})
}

// MetricsLines renders one machine-parsable line per shape.
func (r JobsvcResult) MetricsLines() string {
	var out string
	for _, s := range []JobsvcShape{r.Mixed, r.Uniform} {
		out += fmt.Sprintf(
			"jobsvc-bench shape=%s tenants=%d jobs=%d admitted=%d rejected=%d makespan_s=%.2f p99_wait_s=%.2f jain=%.4f backfills=%d preemptions=%d\n",
			s.Name, s.Opts.Tenants, s.Opts.Jobs, s.Result.Admitted, s.Result.Rejected,
			float64(s.Result.Makespan), float64(s.Result.P99Wait), s.Result.Jain,
			s.Result.Backfills, s.Result.Preemptions)
	}
	return out
}
