// Command vhadoop regenerates the tables and figures of the vHadoop paper
// (Ye et al., IEEE CLUSTER 2012 Workshops) on the simulated platform.
//
// Usage:
//
//	vhadoop [flags] <experiment>
//
// Experiments: table1, fig2, fig3, fig4a, fig4b, fig5, table2, fig6, fig7,
// fig8, nmon, chaos, jobsvc, all. The nmon experiment runs a monitored
// Wordcount and writes the monitor's CSV capture plus analyser charts
// (selected with -chart) to the -out directory. The chaos experiment runs a
// generated fault schedule against a Wordcount and exports the
// observability plane's metrics snapshot, span trace and timeline. The
// jobsvc experiment runs multi-tenant job backlogs through the fair-share
// job service and prints their table and metrics.
//
// Flags:
//
//	-seed N     base random seed (default 1)
//	-reps N     repetitions averaged per configuration, at least 1
//	            (default 3, the paper's protocol)
//	-nodes N    virtual cluster size for the static/migration studies,
//	            at least 2 (default 16)
//	-quick      trimmed sweeps for a fast smoke run
//	-out DIR    output directory for fig8/nmon/chaos artifacts
//	            (default "fig8-out")
//	-chart LIST comma-separated nmon chart metrics by name: cpu, disk, net
//	            (default "cpu,disk,net")
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vhadoop/internal/core"
	"vhadoop/internal/experiments"
	"vhadoop/internal/faults"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/nmon"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// parseCharts turns the -chart flag's comma-separated list into metrics.
func parseCharts(s string) ([]nmon.Metric, error) {
	var out []nmon.Metric
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		m, err := nmon.ParseMetric(field)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runNmon reproduces the platform's monitoring flow: a Wordcount under full
// nmon observation, then the analyser's report, CSV capture and charts.
func runNmon(cfg experiments.Config, outDir string, charts []nmon.Metric) error {
	opts := core.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.Nodes = cfg.Nodes
	pl := core.MustNewPlatform(opts)
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
	if _, err := pl.Run(func(p *sim.Proc) error {
		defer mon.Stop()
		_, err := workloads.RunWordcount(p, pl, "/nmon/corpus", 1024e6, 4, true)
		return err
	}); err != nil {
		return err
	}
	rep := mon.Analyze()
	fmt.Printf("nmon: bottleneck %s (%s) at %.0f%% mean utilisation"+"\n",
		rep.Bottleneck.Resource, rep.Bottleneck.Kind, rep.Bottleneck.MeanUtil*100)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	csvFile, err := os.Create(filepath.Join(outDir, "nmon.csv"))
	if err != nil {
		return err
	}
	// A capture whose file fails to close is not written.
	if err := errors.Join(mon.WriteCSV(csvFile), csvFile.Close()); err != nil {
		return err
	}
	for _, metric := range charts {
		svg := mon.RenderSVG(metric, nmon.ChartOptions{})
		path := filepath.Join(outDir, metric.Name()+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("nmon analyser chart written: %s"+"\n", path)
	}
	fmt.Printf("nmon capture written: %s"+"\n", filepath.Join(outDir, "nmon.csv"))
	return nil
}

// runChaos runs a generated fault schedule against a chaos Wordcount and
// exports the run's observability artifacts: the final metrics snapshot
// (Prometheus text), the span trace (JSON) and its SVG timeline.
func runChaos(cfg experiments.Config, outDir string) error {
	sched := chaostest.GenSchedule(cfg.Seed, 3, 30)
	fmt.Printf("chaos schedule (seed %d):\n%s", cfg.Seed, faults.EncodeString(sched))
	res, err := chaostest.Run(chaostest.Wordcount(), cfg.Seed, sched)
	if err != nil {
		return err
	}
	fmt.Printf("chaos run survived %d faults, finished at t=%.2fs\n", len(sched.Faults), res.End)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tr, err := obs.DecodeTrace([]byte(res.TraceJSON))
	if err != nil {
		return err
	}
	for _, f := range []struct{ name, body string }{
		{"metrics.prom", res.Metrics},
		{"trace.json", res.TraceJSON},
		{"timeline.svg", tr.SVG()},
	} {
		path := filepath.Join(outDir, f.name)
		if err := os.WriteFile(path, []byte(f.body), 0o644); err != nil {
			return err
		}
		fmt.Printf("chaos artifact written: %s\n", path)
	}
	return nil
}

// usage prints the command line synopsis to stderr and exits with status 2.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: vhadoop [flags] <table1|fig2|fig3|fig4a|fig4b|fig5|table2|fig6|fig7|fig8|nmon|chaos|jobsvc|all>")
	os.Exit(2)
}

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	reps := flag.Int("reps", 3, "repetitions averaged per configuration")
	nodes := flag.Int("nodes", 16, "virtual cluster size")
	quick := flag.Bool("quick", false, "trimmed sweeps")
	out := flag.String("out", "fig8-out", "output directory for fig8/nmon/chaos artifacts")
	chart := flag.String("chart", "cpu,disk,net", "comma-separated nmon chart metrics (cpu, disk, net)")
	flag.Parse()

	charts, err := parseCharts(*chart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vhadoop: -chart: %v\n", err)
		os.Exit(2)
	}

	// Reject out-of-range sizes here: experiments.Config needs at least
	// two nodes and one repetition.
	if *nodes < 2 {
		fmt.Fprintf(os.Stderr, "vhadoop: -nodes must be at least 2, got %d\n", *nodes)
		usage()
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "vhadoop: -reps must be at least 1, got %d\n", *reps)
		usage()
	}
	if flag.NArg() != 1 {
		usage()
	}
	cfg := experiments.Config{Seed: *seed, Reps: *reps, Nodes: *nodes, Quick: *quick}

	run := func(name string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "table1":
			fmt.Println("Table I: MapReduce-based parallel benchmarks")
			fmt.Println(experiments.Table1())
		case "fig2":
			res, err := experiments.RunFig2(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("Figure 2: Wordcount, normal vs cross-domain (%d-node cluster)\n", cfg.Nodes)
			fmt.Println(res.Table())
		case "fig3":
			res, err := experiments.RunFig3(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Table())
		case "fig4a":
			res, err := experiments.RunFig4a(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Figure 4(a): TeraSort, generation and sort time vs data size")
			fmt.Println(res.Table())
		case "fig4b":
			res, err := experiments.RunFig4b(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Figure 4(b): TestDFSIO read/write throughput")
			fmt.Println(res.Table())
		case "fig5", "table2":
			res, err := experiments.RunFig5(cfg)
			if err != nil {
				return err
			}
			if name == "fig5" {
				fmt.Println("Figure 5: per-VM migration time and downtime")
				fmt.Println(res.PerVMTable())
			}
			fmt.Println("Table II: overall migration time and downtime of the cluster")
			fmt.Println(res.Table2())
		case "fig6":
			res, err := experiments.RunFig6(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Figure 6: parallel clustering on the Synthetic Control data set")
			fmt.Println(res.Table())
		case "fig7":
			res, err := experiments.RunFig7(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Figure 7: visualizing-sample clustering across cluster sizes")
			fmt.Println(res.Table())
		case "fig8":
			res, err := experiments.RunFig8(cfg)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			for _, panel := range res.Order {
				path := filepath.Join(*out, panel+".svg")
				if err := os.WriteFile(path, []byte(res.SVGs[panel]), 0o644); err != nil {
					return err
				}
				fmt.Printf("Figure 8 panel written: %s\n", path)
			}
		case "nmon":
			if err := runNmon(cfg, *out, charts); err != nil {
				return err
			}
		case "chaos":
			if err := runChaos(cfg, *out); err != nil {
				return err
			}
		case "jobsvc":
			res, err := experiments.RunJobsvc(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Job-service study: multi-tenant backlogs under the fair-share scheduler")
			fmt.Println(res.Table())
			fmt.Print(res.MetricsLines())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		names = []string{"table1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "nmon", "chaos", "jobsvc"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "vhadoop: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
