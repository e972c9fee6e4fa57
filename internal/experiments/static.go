package experiments

import (
	"errors"
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// Table I ------------------------------------------------------------------

// Table1 reproduces the benchmark inventory verbatim.
func Table1() string {
	return table(
		[]string{"Name", "Category", "Description"},
		[][]string{
			{"Wordcount", "MapReduce", "Reads text files and counts how often words occur"},
			{"MRBench", "MapReduce", "Checks whether small job runs are responsive and running efficiently on the cluster"},
			{"TeraSort", "MapReduce & HDFS", "Sorts the data as fast as possible, combining testing the HDFS and MapReduce layers"},
			{"DFSIOTest", "HDFS", "Is a read and write test for HDFS"},
		},
	)
}

// Figure 2 ------------------------------------------------------------------

// Fig2Point is one bar of Figure 2.
type Fig2Point struct {
	SizeMB  float64
	Layout  core.Layout
	Runtime sim.Time
}

// Fig2Result is the Wordcount normal-vs-cross-domain sweep.
type Fig2Result struct {
	Points []Fig2Point
}

// Table renders the figure's series as rows (sizes) x columns (layouts).
func (r Fig2Result) Table() string {
	return pivot("Input", r.Points, func(p Fig2Point) (string, string, sim.Time) {
		return fmt.Sprintf("%.0f MB", p.SizeMB), layoutColumn[p.Layout], p.Runtime
	}, true)
}

// Fig2Sizes returns the input sweep in MB.
func Fig2Sizes(quick bool) []float64 {
	return sweep(quick, []float64{128, 1024}, []float64{64, 128, 256, 512, 1024})
}

// RunFig2 measures Wordcount runtime over input size for both layouts.
func RunFig2(cfg Config) (Fig2Result, error) {
	var res Fig2Result
	for _, size := range Fig2Sizes(cfg.Quick) {
		for _, layout := range layouts() {
			rt, err := cfg.avg(cfg.options(layout), func(p *sim.Proc, pl *core.Platform) ([]float64, error) {
				out, err := workloads.RunWordcount(p, pl, "/wc/in", size*1e6, 4, true)
				return []float64{out.Stats.Runtime}, err
			})
			if err != nil {
				return res, fmt.Errorf("%v MB %v: %w", size, layout, err)
			}
			res.Points = append(res.Points, Fig2Point{SizeMB: size, Layout: layout, Runtime: rt[0]})
		}
	}
	return res, nil
}

// Figure 3 ------------------------------------------------------------------

// Fig3Point is one bar of Figure 3.
type Fig3Point struct {
	Maps, Reduces int
	Layout        core.Layout
	Runtime       sim.Time
}

// Fig3Result covers both panels: (a) map sweep at reduce=1, (b) reduce sweep
// at map=15.
type Fig3Result struct {
	MapSweep    []Fig3Point
	ReduceSweep []Fig3Point
}

func fig3Table(points []Fig3Point, varying string) string {
	return pivot(varying, points, func(p Fig3Point) (string, string, sim.Time) {
		k := p.Maps
		if varying == "reduces" {
			k = p.Reduces
		}
		return fmt.Sprintf("%d", k), layoutColumn[p.Layout], p.Runtime
	}, true)
}

// Table renders both panels.
func (r Fig3Result) Table() string {
	return "Figure 3(a): MRBench, reduce=1, maps scaling\n" + fig3Table(r.MapSweep, "maps") +
		"\nFigure 3(b): MRBench, map=15, reduces scaling\n" + fig3Table(r.ReduceSweep, "reduces")
}

// Fig3MapCounts returns panel (a)'s sweep.
func Fig3MapCounts(quick bool) []int { return sweep(quick, []int{1, 4}, []int{1, 2, 3, 4, 5, 6}) }

// Fig3ReduceCounts returns panel (b)'s sweep.
func Fig3ReduceCounts(quick bool) []int { return sweep(quick, []int{1, 4}, []int{1, 2, 3, 4, 5, 6}) }

// fig3Sweep averages MRBench's per-run time on both layouts at each count,
// which set writes into the default options.
func fig3Sweep(cfg Config, counts []int, set func(o *workloads.MRBenchOptions, n int)) ([]Fig3Point, error) {
	var points []Fig3Point
	for _, n := range counts {
		opts := workloads.DefaultMRBenchOptions()
		set(&opts, n)
		for _, layout := range layouts() {
			rt, err := cfg.avg(cfg.options(layout), func(p *sim.Proc, pl *core.Platform) ([]float64, error) {
				out, err := workloads.RunMRBench(p, pl, opts)
				return []float64{out.AvgTime}, err
			})
			if err != nil {
				return points, fmt.Errorf("maps=%d reduces=%d %v: %w", opts.Maps, opts.Reduces, layout, err)
			}
			points = append(points, Fig3Point{Maps: opts.Maps, Reduces: opts.Reduces, Layout: layout, Runtime: rt[0]})
		}
	}
	return points, nil
}

// RunFig3 measures MRBench under map and reduce scaling for both layouts.
// Panel (b) uses MRBench's classic tiny input (the tool's default is
// literally one generated line), where job runtime is framework overhead:
// task JVM setup, heartbeat-quantised scheduling and the jobtracker's
// one-reduce-per-round ramp-up.
func RunFig3(cfg Config) (res Fig3Result, err error) {
	res.MapSweep, err = fig3Sweep(cfg, Fig3MapCounts(cfg.Quick), func(o *workloads.MRBenchOptions, m int) {
		o.Maps, o.Reduces = m, 1
	})
	if err != nil {
		return res, err
	}
	res.ReduceSweep, err = fig3Sweep(cfg, Fig3ReduceCounts(cfg.Quick), func(o *workloads.MRBenchOptions, r int) {
		o.Maps, o.Reduces = 15, r
		o.BytesPerMap, o.LinesPerMap = 2e6, 16
	})
	return res, err
}

// Figure 4 ------------------------------------------------------------------

// Fig4aPoint is one TeraSort measurement.
type Fig4aPoint struct {
	SizeMB   float64
	Layout   core.Layout
	GenTime  sim.Time
	SortTime sim.Time
}

// Fig4aResult is the TeraSort size sweep.
type Fig4aResult struct {
	Points []Fig4aPoint
}

// Table renders generation and sort times per size and layout.
func (r Fig4aResult) Table() string {
	return tableOf([]string{"Data", "Layout", "TeraGen (s)", "TeraSort (s)"}, r.Points, func(p Fig4aPoint) []string {
		return []string{fmt.Sprintf("%.0f MB", p.SizeMB), p.Layout.String(), secs(p.GenTime), secs(p.SortTime)}
	})
}

// Fig4aSizes returns the data sweep in MB.
func Fig4aSizes(quick bool) []float64 {
	return sweep(quick, []float64{100, 1000}, []float64{100, 200, 400, 600, 800, 1000})
}

// RunFig4a measures TeraGen and TeraSort times over data size.
func RunFig4a(cfg Config) (Fig4aResult, error) {
	var res Fig4aResult
	for _, size := range Fig4aSizes(cfg.Quick) {
		for _, layout := range layouts() {
			t, err := cfg.avg(cfg.options(layout), func(p *sim.Proc, pl *core.Platform) ([]float64, error) {
				out, err := workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(size*1e6))
				if err == nil && !out.Validated {
					err = errors.New("output failed validation")
				}
				return []float64{out.GenTime, out.SortTime}, err
			})
			if err != nil {
				return res, fmt.Errorf("%v MB %v: %w", size, layout, err)
			}
			res.Points = append(res.Points, Fig4aPoint{SizeMB: size, Layout: layout, GenTime: t[0], SortTime: t[1]})
		}
	}
	return res, nil
}

// Fig4bPoint is one DFSIO measurement.
type Fig4bPoint struct {
	Kind           string
	Layout         core.Layout
	ThroughputMBps float64
}

// Fig4bResult is the DFSIO read/write throughput comparison.
type Fig4bResult struct {
	Points []Fig4bPoint
}

// Table renders throughput per operation and layout.
func (r Fig4bResult) Table() string {
	return tableOf([]string{"Operation", "Layout", "Aggregate MB/s"}, r.Points, func(p Fig4bPoint) []string {
		return []string{p.Kind, p.Layout.String(), fmt.Sprintf("%.1f", p.ThroughputMBps)}
	})
}

// RunFig4b measures DFSIO write then read throughput for both layouts.
func RunFig4b(cfg Config) (Fig4bResult, error) {
	var res Fig4bResult
	opts := workloads.DFSIOOptions{Files: 8, FileBytes: 128e6}
	for _, layout := range layouts() {
		mbps, err := cfg.avg(cfg.options(layout), func(p *sim.Proc, pl *core.Platform) ([]float64, error) {
			w, err := workloads.RunDFSIOWrite(p, pl, opts)
			if err != nil {
				return nil, err
			}
			r, err := workloads.RunDFSIORead(p, pl, opts)
			return []float64{w.ThroughputMBps, r.ThroughputMBps}, err
		})
		if err != nil {
			return res, fmt.Errorf("%v: %w", layout, err)
		}
		res.Points = append(res.Points,
			Fig4bPoint{Kind: "write", Layout: layout, ThroughputMBps: mbps[0]},
			Fig4bPoint{Kind: "read", Layout: layout, ThroughputMBps: mbps[1]},
		)
	}
	return res, nil
}
