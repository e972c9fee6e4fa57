// Command vhadoop regenerates the tables and figures of the vHadoop paper
// (Ye et al., IEEE CLUSTER 2012 Workshops) on the simulated platform.
//
// Usage:
//
//	vhadoop [flags] <experiment>
//
// The experiments are experiments.List's entries, in the order "all" runs
// them (all skips Table II, which Figure 5 prints): Table I, Figures 2-8,
// the monitored Wordcount (nmon: CSV capture plus the analyser charts
// -chart selects), a generated fault schedule against a Wordcount (chaos:
// metrics snapshot, span trace and timeline) and the multi-tenant job
// service study (jobsvc). Running with no experiment prints their names.
// chaos runs one schedule, drawn from -seed, on a platform of fixed size:
// it ignores -nodes, -reps and -quick.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vhadoop/internal/experiments"
	"vhadoop/internal/nmon"
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

// show prints an experiment's tables and lines, then writes its files
// under dir and names each one.
func show(out experiments.Output, dir string) error {
	for _, t := range out.Tables {
		if t.Title != "" {
			fmt.Println(t.Title)
		}
		fmt.Println(t.Text)
	}
	fmt.Print(out.Lines)
	for _, f := range out.Files {
		path := filepath.Join(dir, f.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(f.Body), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s written: %s\n", f.Label, path)
	}
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	reps := flag.Int("reps", 3, "repetitions averaged per configuration")
	nodes := flag.Int("nodes", 16, "virtual cluster size")
	quick := flag.Bool("quick", false, "trimmed sweeps")
	out := flag.String("out", "fig8-out", "output directory for the files experiments write")
	chart := flag.String("chart", "cpu,disk,net", "comma-separated nmon chart metrics (cpu, disk, net)")
	flag.Parse()

	charts, err := parseCharts(*chart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vhadoop: -chart: %v\n", err)
		os.Exit(2)
	}
	list := experiments.List(charts)
	names := make([]string, 0, len(list))
	for _, e := range list {
		names = append(names, e.Name)
	}
	usage := func() {
		fmt.Fprintf(os.Stderr, "usage: vhadoop [flags] <%s|all>\n", strings.Join(names, "|"))
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

	name, ran := flag.Arg(0), false
	for _, e := range list {
		if e.Name != name && (name != "all" || e.Part) {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.Run(cfg)
		if err == nil {
			err = show(res, *out)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vhadoop: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "vhadoop: %s: unknown experiment %q\n", name, name)
		os.Exit(1)
	}
}
