package experiments

import (
	"fmt"
	"strings"

	"vhadoop/internal/core"
	"vhadoop/internal/faults"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/nmon"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// An Experiment is one name the vhadoop command accepts: the run behind it
// and what that run shows.
type Experiment struct {
	Name string
	// Part marks an entry whose output another entry already shows in
	// full, so "all" skips it: Table II is the tail of Figure 5.
	Part bool
	Run  func(Config) (Output, error)
}

// Output is what an experiment shows: captioned tables, then plain lines,
// on stdout, then files for the output directory.
type Output struct {
	Tables []Table
	Lines  string
	Files  []File
}

// A Table is a rendered table under its caption; an empty Title prints no
// caption line.
type Table struct{ Title, Text string }

// A File is one artifact; the writer reports it as "<Label> written: <path>".
type File struct{ Label, Name, Body string }

// List returns every experiment in the order "all" runs them. charts are the
// nmon analyser charts the monitored run renders, in order.
func List(charts []nmon.Metric) []Experiment {
	return []Experiment{
		{Name: "table1", Run: func(Config) (Output, error) {
			return Output{Tables: []Table{{"Table I: MapReduce-based parallel benchmarks", Table1()}}}, nil
		}},
		{Name: "fig2", Run: func(cfg Config) (Output, error) {
			r, err := RunFig2(cfg)
			return Output{Tables: []Table{{fmt.Sprintf("Figure 2: Wordcount, normal vs cross-domain (%d-node cluster)", cfg.Nodes), r.Table()}}}, err
		}},
		{Name: "fig3", Run: titled("", RunFig3)},
		{Name: "fig4a", Run: titled("Figure 4(a): TeraSort, generation and sort time vs data size", RunFig4a)},
		{Name: "fig4b", Run: titled("Figure 4(b): TestDFSIO read/write throughput", RunFig4b)},
		{Name: "fig5", Run: func(cfg Config) (Output, error) {
			r, err := RunFig5(cfg)
			return Output{Tables: []Table{{"Figure 5: per-VM migration time and downtime", r.PerVMTable()}, table2(r)}}, err
		}},
		{Name: "table2", Part: true, Run: func(cfg Config) (Output, error) {
			r, err := RunFig5(cfg)
			return Output{Tables: []Table{table2(r)}}, err
		}},
		{Name: "fig6", Run: titled("Figure 6: parallel clustering on the Synthetic Control data set", RunFig6)},
		{Name: "fig7", Run: titled("Figure 7: visualizing-sample clustering across cluster sizes", RunFig7)},
		{Name: "fig8", Run: func(cfg Config) (Output, error) {
			r, err := RunFig8(cfg)
			var out Output
			for _, panel := range r.Order {
				out.Files = append(out.Files, File{"Figure 8 panel", panel + ".svg", r.SVGs[panel]})
			}
			return out, err
		}},
		{Name: "nmon", Run: func(cfg Config) (Output, error) {
			mon, _, err := RunNmon(cfg)
			if err != nil {
				return Output{}, err
			}
			b := mon.Analyze().Bottleneck
			var csv strings.Builder
			if err := mon.WriteCSV(&csv); err != nil {
				return Output{}, err
			}
			out := Output{Lines: fmt.Sprintf("nmon: bottleneck %s (%s) at %.0f%% mean utilisation\n", b.Resource, b.Kind, b.MeanUtil*100)}
			for _, m := range charts {
				out.Files = append(out.Files, File{"nmon analyser chart", m.Name() + ".svg", mon.RenderSVG(m, nmon.ChartOptions{})})
			}
			out.Files = append(out.Files, File{"nmon capture", "nmon.csv", csv.String()})
			return out, nil
		}},
		// A generated fault schedule against a chaos Wordcount, with the
		// run's final metrics snapshot (Prometheus text), its span trace
		// (JSON) and the trace's SVG timeline.
		{Name: "chaos", Run: func(cfg Config) (Output, error) {
			sched := chaostest.GenSchedule(cfg.Seed, 3, 30)
			res, err := chaostest.Run(chaostest.Wordcount(), cfg.Seed, sched)
			if err != nil {
				return Output{}, err
			}
			tr, err := obs.DecodeTrace([]byte(res.TraceJSON))
			if err != nil {
				return Output{}, err
			}
			const label = "chaos artifact"
			return Output{
				Lines: fmt.Sprintf("chaos schedule (seed %d):\n%schaos run survived %d faults, finished at t=%.2fs\n",
					cfg.Seed, faults.EncodeString(sched), len(sched.Faults), res.End),
				Files: []File{{label, "metrics.prom", res.Metrics}, {label, "trace.json", res.TraceJSON}, {label, "timeline.svg", tr.SVG()}},
			}, nil
		}},
		{Name: "jobsvc", Run: func(cfg Config) (Output, error) {
			r, err := RunJobsvc(cfg)
			return Output{
				Tables: []Table{{"Job-service study: multi-tenant backlogs under the fair-share scheduler", r.Table()}},
				Lines:  r.MetricsLines(),
			}, err
		}},
	}
}

// titled shows the one table a Run* function's result renders, under title.
func titled[R interface{ Table() string }](title string, run func(Config) (R, error)) func(Config) (Output, error) {
	return func(cfg Config) (Output, error) {
		r, err := run(cfg)
		return Output{Tables: []Table{{title, r.Table()}}}, err
	}
}

func table2(r Fig5Result) Table {
	return Table{"Table II: overall migration time and downtime of the cluster", r.Table2()}
}

// RunNmon reproduces the platform's monitoring flow: a 1 GB Wordcount under
// nmon observation of every VM, every machine, the filer's disk and its NIC.
// It returns the stopped monitor and the platform whose metrics it
// published.
func RunNmon(cfg Config) (*nmon.Monitor, *core.Platform, error) {
	pl := core.MustNewPlatform(cfg.options(core.Normal))
	mon := nmon.New(pl.Engine, pl.Obs)
	for _, vm := range pl.VMs {
		mon.Watch(vm)
	}
	for _, pm := range pl.PMs {
		mon.WatchMachine(pm)
	}
	mon.WatchDisk(pl.Filer.Disk)
	mon.WatchLink(pl.Filer.NICTx)
	mon.WatchLink(pl.Filer.NICRx)
	mon.Start()
	_, err := pl.Run(func(p *sim.Proc) error {
		defer mon.Stop()
		_, err := workloads.RunWordcount(p, pl, "/nmon/corpus", 1024e6, 4, true)
		return err
	})
	return mon, pl, err
}
