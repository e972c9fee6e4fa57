package vhadoop_test

// Chaos harness regression tests: real MapReduce workloads run on the
// fault-hardened cross-domain platform while seeded fault schedules crash
// VMs, fail a whole machine, hang tasktrackers, degrade and partition the
// network and stall the NFS filer. Three invariants must hold for every
// checked-in seed:
//
//  1. the job completes despite the faults;
//  2. its output is byte-identical to a fault-free run on the same
//     platform seed (recovery must not change answers);
//  3. the same platform seed and schedule reproduce a bit-identical
//     span trace, every event included (faults fire off the simulation
//     clock, so chaos runs are exactly replayable).
//
// Seeds are part of the regression surface: a recovery-path change that
// makes any of them fail or diverge is a real behavioural change.

import (
	"fmt"
	"testing"

	"vhadoop/internal/difftest"
	"vhadoop/internal/faults"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
)

// chaosPlatformSeed pins the platform and data; chaos seeds vary only the
// fault schedule.
const chaosPlatformSeed = 42

// chaosHorizon covers the whole fault-free job runtime, so generated
// faults land while work is actually in flight.
const chaosHorizon sim.Time = 30

func runChaosSuite(t *testing.T, w chaostest.Workload, seeds []int64) {
	t.Helper()
	baseline, err := chaostest.Run(w, chaosPlatformSeed, faults.Schedule{})
	if err != nil {
		t.Fatalf("fault-free baseline: %v", err)
	}
	if baseline.Output == "" {
		t.Fatal("fault-free baseline produced no output")
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := chaostest.GenSchedule(seed, 3, chaosHorizon)
			if len(sched.Faults) == 0 {
				t.Fatal("empty schedule: this seed tests nothing")
			}
			r1, err := chaostest.Run(w, chaosPlatformSeed, sched)
			if err != nil {
				t.Fatalf("job did not survive the schedule:\n%s%v", faults.EncodeString(sched), err)
			}
			if r1.Output != baseline.Output {
				t.Fatalf("output differs from fault-free run (%d vs %d bytes):\n%s",
					len(r1.Output), len(baseline.Output), faults.EncodeString(sched))
			}
			if len(r1.Events) < len(sched.Faults) {
				t.Fatalf("only %d fault events recorded for %d faults", len(r1.Events), len(sched.Faults))
			}
			// Every injected fault must also appear as a span in the
			// exported trace, so a chaos run's timeline shows what hit it.
			tr, err := obs.DecodeTrace([]byte(r1.TraceJSON))
			if err != nil {
				t.Fatalf("span trace does not decode: %v", err)
			}
			faultSpans := 0
			for _, sp := range tr.Spans {
				if sp.Kind == obs.KindFault {
					faultSpans++
				}
			}
			if faultSpans < len(sched.Faults) {
				t.Fatalf("only %d fault spans exported for %d faults", faultSpans, len(sched.Faults))
			}
			r2, err := chaostest.Run(w, chaosPlatformSeed, sched)
			if err != nil {
				t.Fatalf("replay failed where the first run passed: %v", err)
			}
			difftest.RequireIdentical(t, "replay",
				[]difftest.Digest{{Name: "spans", Data: r1.TraceJSON}, {Name: "end", Data: fmt.Sprint(r1.End)}},
				[]difftest.Digest{{Name: "spans", Data: r2.TraceJSON}, {Name: "end", Data: fmt.Sprint(r2.End)}})
		})
	}
}

// chaosArtifacts flattens one chaos run into the comparable artifact set.
func chaosArtifacts(r chaostest.Result, err error) []difftest.Digest {
	errs := ""
	if err != nil {
		errs = err.Error()
	}
	return []difftest.Digest{
		{Name: "error", Data: errs},
		{Name: "output", Data: r.Output},
		{Name: "end", Data: fmt.Sprint(r.End)},
		{Name: "metrics", Data: r.Metrics},
		{Name: "spans", Data: r.TraceJSON},
	}
}

// TestShardedPlatformDifferential keeps the name of the suite that once
// diffed the sharded engine against the sequential one; with one engine
// left, the second side is a rerun. Every workload × platform seed ×
// fault schedule case runs twice and the full artifact set — error,
// output, end time, metrics, spans and their events — must match byte
// for byte. It is the only chaos coverage of the canopy and DFSIO
// workloads.
func TestShardedPlatformDifferential(t *testing.T) {
	workloads := []chaostest.Workload{
		chaostest.Wordcount(),
		chaostest.TeraSort(),
		chaostest.Canopy(),
		chaostest.DFSIO(),
	}
	platformSeeds := []int64{42, 7, 1234}
	schedules := []struct {
		name string
		seed int64
	}{
		{"fault-free", 0},
		{"chaos5", 5},
		{"chaos9", 9},
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, pseed := range platformSeeds {
				for _, sc := range schedules {
					t.Run(fmt.Sprintf("seed%d/%s", pseed, sc.name), func(t *testing.T) {
						var sched faults.Schedule
						if sc.seed != 0 {
							sched = chaostest.GenSchedule(sc.seed, 3, chaosHorizon)
							if len(sched.Faults) == 0 {
								t.Fatal("empty fault schedule: this case tests nothing")
							}
						}
						r, err := chaostest.Run(w, pseed, sched)
						if sc.seed == 0 && err != nil {
							t.Fatalf("fault-free run failed: %v", err)
						}
						if r.Metrics == "" || r.TraceJSON == "" {
							t.Fatal("run produced no observability artifacts")
						}
						// A fault-free run may record no events; a faulted
						// schedule always records its fault firings.
						if sc.seed != 0 {
							requireEvents(t, r.TraceJSON)
						}
						r2, err2 := chaostest.Run(w, pseed, sched)
						difftest.RequireIdentical(t, "rerun", chaosArtifacts(r, err), chaosArtifacts(r2, err2))
					})
				}
			}
		})
	}
}

// requireEvents fails the test unless the exported span trace decodes and
// holds at least one event.
func requireEvents(t *testing.T, traceJSON string) {
	t.Helper()
	tr, err := obs.DecodeTrace([]byte(traceJSON))
	if err != nil {
		t.Fatalf("span trace does not decode: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("decoded spans hold no events")
	}
}

func TestChaosWordcount(t *testing.T) {
	runChaosSuite(t, chaostest.Wordcount(), []int64{1, 3, 5, 6, 9})
}

func TestChaosTeraSort(t *testing.T) {
	runChaosSuite(t, chaostest.TeraSort(), []int64{2, 5, 12, 24})
}

// TestChaosMachineCrashRecovery pins a hand-written worst-case schedule
// rather than a generated one: the entire second machine fails while the
// job runs, taking half the cluster (4 VMs, their tasktrackers and
// datanodes) with it. PM-aware triple replication plus the replication
// monitor and tracker failure detector must carry the job to the same
// answer.
func TestChaosMachineCrashRecovery(t *testing.T) {
	for _, w := range []chaostest.Workload{chaostest.Wordcount(), chaostest.TeraSort()} {
		t.Run(w.Name, func(t *testing.T) {
			baseline, err := chaostest.Run(w, chaosPlatformSeed, faults.Schedule{})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			sched := faults.Schedule{Faults: []faults.Fault{
				{At: 8, Kind: faults.KindMachCrash, Target: "pm2"},
			}}
			r, err := chaostest.Run(w, chaosPlatformSeed, sched)
			if err != nil {
				t.Fatalf("job did not survive losing pm2: %v", err)
			}
			if r.Output != baseline.Output {
				t.Fatal("output differs from fault-free run after machine crash")
			}
		})
	}
}
