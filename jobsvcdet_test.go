package vhadoop_test

// Determinism suite for the job service: a fixed seed plus a fixed
// submission schedule must reproduce every artifact of a multi-tenant
// backlog byte-for-byte — the per-tenant report, the metrics snapshot and
// the span trace with every service decision as an event — across
// independent reruns. The same contract holds with a fault schedule
// firing mid-backlog: chaos decides which jobs fail, but it decides
// identically every time.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"vhadoop/internal/difftest"
	"vhadoop/internal/faults"
	"vhadoop/internal/jobsvc"
	"vhadoop/internal/jobsvc/backlog"
)

// backlogArtifacts flattens one run into the comparable artifact set.
func backlogArtifacts(r backlog.Result) []difftest.Digest {
	return []difftest.Digest{
		{Name: "report", Data: r.Report},
		{Name: "metrics", Data: r.Metrics},
		{Name: "spans", Data: r.Spans},
	}
}

// bigBacklog is the acceptance-scale backlog: 100 tenants, 1000 jobs,
// with backfill and preemption armed so every scheduler path runs.
func bigBacklog() backlog.Options {
	return backlog.Options{
		Nodes:   16,
		Seed:    42,
		Tenants: 100,
		Jobs:    1000,
		Config: jobsvc.Config{
			Tick: 2, Backfill: true, Preemption: true,
			StarveWait: 40, MaxPreemptPerTick: 2,
		},
	}
}

func TestJobsvcBacklogDeterministic(t *testing.T) {
	run := func() backlog.Result {
		r, err := backlog.Run(bigBacklog())
		if err != nil {
			t.Fatalf("backlog run failed: %v", err)
		}
		return r
	}
	base := run()
	if base.Admitted != 1000 || base.Rejected != 0 {
		t.Fatalf("admitted %d rejected %d, want 1000/0", base.Admitted, base.Rejected)
	}
	completed, failed := 0, 0
	for _, st := range base.Stats {
		completed += st.Completed
		failed += st.Failed
	}
	if completed+failed != 1000 || failed != 0 {
		t.Fatalf("backlog did not run to completion: %d done %d failed", completed, failed)
	}
	if base.Report == "" || base.Metrics == "" || base.Spans == "" {
		t.Fatal("run produced empty artifacts")
	}
	// The mixed backlog carries asymmetric per-tenant demand, so its Jain
	// index only gets a sanity floor here; the fairness acceptance number
	// (>= 0.9) is measured by the bench on the uniform-demand shape, where
	// any share skew is the scheduler's own doing.
	if base.Jain <= 0.2 {
		t.Fatalf("weighted Jain index = %.3f, want > 0.2", base.Jain)
	}
	if base.Backfills == 0 {
		t.Fatal("big backlog exercised no backfill")
	}
	want := backlogArtifacts(base)
	difftest.RequireIdentical(t, "rerun", want, backlogArtifacts(run()))
}

// TestJobsvcBacklogGolden pins two small backlogs' reports and span
// traces — every admission, pick, backfill and completion time — to fixed
// digests. The mixed shape carries asymmetric per-tenant demand. The
// uniform shape gives every tenant identical jobs, so locality ties decide
// most of its picks. The digests must survive every scheduler
// optimisation: the mixed one predates the locality view, the per-tick
// score and pick caches, the lazy pick (only the tenant being served is
// picked) and the refreshed view; the uniform one was recorded before the
// lazy pick. The mixed digest moved from 9ecbf8de… when classes of
// activities became the max-min solver's unit: 23 of the span trace's
// 12,025 numbers moved in their last bits (at most 3.2e-14 relative), and
// every decision and count stayed the same. The earlier mixed digest,
// d4dd137d…, hashed the report plus
// the engine line trace: the same events, plus a second "jobsvc: "-prefixed
// copy of every service decision. A policy change must say so and move
// the digests.
func TestJobsvcBacklogGolden(t *testing.T) {
	for _, c := range []struct {
		name    string
		uniform bool
		golden  string
	}{
		{"mixed", false, "f734e4550db8d4af4a6af775870934999fbaee001758466af7521bee9ffb17a0"},
		{"uniform", true, "370016dabc6cb15c97fe20b2be3ae15cf69b34d7dc8eecf392652e246f1e0e51"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := bigBacklog()
			o.Tenants, o.Jobs, o.Uniform = 20, 200, c.uniform
			r, err := backlog.Run(o)
			if err != nil {
				t.Fatalf("backlog run failed: %v", err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Report+r.Spans))); got != c.golden {
				t.Fatalf("report+spans sha256 = %s, want %s: the scheduler's decisions changed", got, c.golden)
			}
		})
	}
}

// TestJobsvcChaosBacklogDeterministic drives a 20-job backlog through a
// VM crash plus a machine partition. Whatever the faults do to
// individual jobs, the terminal state of every job — and every artifact
// of the run — must replay identically.
func TestJobsvcChaosBacklogDeterministic(t *testing.T) {
	opts := backlog.Options{
		Nodes:    8,
		Seed:     7,
		Tenants:  5,
		Jobs:     20,
		Hardened: true,
		Config:   jobsvc.Config{Tick: 2, Backfill: true},
		FaultsAfterStart: faults.Schedule{Faults: []faults.Fault{
			{At: 10, Kind: faults.KindVMCrash, Target: "vm05"},
			{At: 25, Kind: faults.KindPartition, Target: "pm2", Duration: 20},
		}},
	}
	run := func() backlog.Result {
		r, err := backlog.Run(opts)
		if err != nil {
			t.Fatalf("chaos backlog run failed: %v", err)
		}
		return r
	}
	r1, r2 := run(), run()
	completed, failed := 0, 0
	for _, st := range r1.Stats {
		completed += st.Completed
		failed += st.Failed
	}
	if completed+failed != 20 {
		t.Fatalf("jobs unaccounted for: %d done + %d failed != 20", completed, failed)
	}
	requireEvents(t, r1.Spans)
	difftest.RequireIdentical(t, "chaos-rerun", backlogArtifacts(r1), backlogArtifacts(r2))
}
