// Package chaostest is the chaos harness: it runs real MapReduce workloads
// on a fault-hardened platform while a seeded fault schedule fires, and
// hands the caller everything needed to check the three chaos invariants —
// the job completes, the output is byte-identical to a fault-free run, and
// the same seed plus schedule reproduces a bit-identical span trace, fault
// events included.
package chaostest

import (
	"fmt"
	"math/rand"
	"strings"

	"vhadoop/internal/core"
	"vhadoop/internal/faults"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nmon"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// Workload is one chaos-testable job: it runs on the platform and returns
// its canonical output records.
type Workload struct {
	Name string
	Run  func(p *sim.Proc, pl *core.Platform) ([]mapreduce.KV, error)
}

// FromSpec adapts any workloads.Spec into a chaos-testable Workload — the
// chaos matrix picks up new workload families for free once they implement
// the Spec interface.
func FromSpec(s workloads.Spec) Workload {
	return Workload{Name: s.Workload(), Run: func(p *sim.Proc, pl *core.Platform) ([]mapreduce.KV, error) {
		res, err := s.Run(p, pl)
		if err != nil {
			return nil, err
		}
		return res.Output, nil
	}}
}

// Wordcount is a 32 MB, 4-reduce wordcount with combiner.
func Wordcount() Workload {
	return FromSpec(workloads.WordcountSpec{Input: "/chaos/wc", SizeBytes: 32e6, Reduces: 4, Combiner: true})
}

// TeraSort is a 32 MB TeraGen + TeraSort + TeraValidate pipeline.
func TeraSort() Workload {
	return FromSpec(workloads.TeraSortSpec{Options: workloads.DefaultTeraOptions(32e6)})
}

// Canopy is Mahout-style canopy clustering over the control-chart dataset:
// the ML workload of the chaos matrix. Its canonical output is the final
// canopy center set.
func Canopy() Workload {
	return FromSpec(workloads.CanopySpec{Dir: "/chaos/canopy"})
}

// DFSIO is the TestDFSIO write-then-read HDFS stress phase pair: the
// non-MapReduce workload of the chaos matrix. Its canonical output is the
// two phase throughputs.
func DFSIO() Workload {
	return FromSpec(workloads.DFSIOSpec{Options: workloads.DFSIOOptions{Files: 6, FileBytes: 4e6}})
}

// Options is the chaos platform: 8 nodes split across both machines,
// PM-aware triple replication so one whole machine can die, and the
// namenode's replication monitor running so lost replicas get repaired
// while the job is still in flight.
func Options(seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 8
	opts.Layout = core.CrossDomain
	opts.HDFS.PMAware = true
	opts.HDFS.Replication = 3
	opts.HDFS.ReplMonitorInterval = 15
	return opts
}

// GenOptions returns schedule-generation pools that keep a run survivable
// by construction: the master VM (vm00, namenode + jobtracker) and its
// machine pm1 are never fault targets, so every fault hits capacity the
// recovery paths can route around.
func GenOptions(n int, horizon sim.Time) faults.GenOptions {
	return faults.GenOptions{
		N:       n,
		Horizon: horizon,
		// One worker from each side of the cross-domain split.
		VMs:      []string{"vm02", "vm05"},
		Machines: []string{"pm2"},
		Filer:    "filer",
	}
}

// GenSchedule draws the fault schedule for one chaos seed.
func GenSchedule(scheduleSeed int64, n int, horizon sim.Time) faults.Schedule {
	return faults.Generate(rand.New(rand.NewSource(scheduleSeed)), GenOptions(n, horizon))
}

// Result is one chaos trial.
type Result struct {
	Output string // canonical serialization of the job output
	Events []nmon.Event
	End    sim.Time
	// Metrics is the observability plane's final registry snapshot in
	// Prometheus text format; TraceJSON is the full span trace, every
	// event included. Both are byte-reproducible across same-seed runs.
	Metrics   string
	TraceJSON string
}

// Canonical serializes job output records for byte comparison.
func Canonical(out []mapreduce.KV) string {
	var b strings.Builder
	for _, kv := range out {
		fmt.Fprintf(&b, "%s\t%v\n", kv.Key, kv.Value)
	}
	return b.String()
}

// Run provisions a fresh chaos platform from platformSeed, installs the
// schedule, runs the workload and exports its telemetry. The returned error is
// the driver's: a completed chaos run means err == nil even though VMs and
// machines died along the way.
func Run(w Workload, platformSeed int64, schedule faults.Schedule) (Result, error) {
	pl := core.MustNewPlatform(Options(platformSeed))
	mon := nmon.New(pl.Engine, nmon.WithInterval(5), nmon.WithPlane(pl.Obs))
	inj := faults.NewInjector(pl)
	inj.Attach(mon)
	if err := inj.Install(schedule); err != nil {
		return Result{}, err
	}
	var out []mapreduce.KV
	end, err := pl.Run(func(p *sim.Proc) error {
		var werr error
		out, werr = w.Run(p, pl)
		return werr
	})
	res := Result{
		Events:    mon.Events(),
		End:       end,
		Metrics:   pl.Obs.Snapshot().PrometheusText(),
		TraceJSON: pl.Obs.Tracer().JSON(),
	}
	if err != nil {
		return res, fmt.Errorf("chaos %s: %w", w.Name, err)
	}
	res.Output = Canonical(out)
	return res, nil
}
