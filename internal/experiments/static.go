package experiments

import (
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
	byKey := map[string]sim.Time{}
	var sizes []float64
	seen := map[float64]bool{}
	for _, p := range r.Points {
		byKey[fmt.Sprintf("%v/%v", p.SizeMB, p.Layout)] = p.Runtime
		if !seen[p.SizeMB] {
			seen[p.SizeMB] = true
			sizes = append(sizes, p.SizeMB)
		}
	}
	rows := make([][]string, 0, len(sizes))
	for _, s := range sizes {
		n := byKey[fmt.Sprintf("%v/%v", s, core.Normal)]
		x := byKey[fmt.Sprintf("%v/%v", s, core.CrossDomain)]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f MB", s), secs(n), secs(x), fmt.Sprintf("%.2fx", x/n),
		})
	}
	return table([]string{"Input", "Normal (s)", "Cross-domain (s)", "Slowdown"}, rows)
}

// Fig2Sizes returns the input sweep in MB.
func Fig2Sizes(quick bool) []float64 {
	if quick {
		return []float64{128, 1024}
	}
	return []float64{64, 128, 256, 512, 1024}
}

// RunFig2 measures Wordcount runtime over input size for both layouts.
func RunFig2(cfg Config) (Fig2Result, error) {
	var res Fig2Result
	for _, size := range Fig2Sizes(cfg.Quick) {
		for _, layout := range layouts() {
			size, layout := size, layout
			rt, err := cfg.avg(func(seed int64) (float64, error) {
				pl := core.MustNewPlatform(cfg.platformOptions(layout, seed))
				var out workloads.WordcountResult
				_, err := pl.Run(func(p *sim.Proc) error {
					var err error
					out, err = workloads.RunWordcount(p, pl, "/wc/in", size*1e6, 4, true)
					return err
				})
				return out.Stats.Runtime, err
			})
			if err != nil {
				return res, fmt.Errorf("fig2 %v %v: %w", size, layout, err)
			}
			res.Points = append(res.Points, Fig2Point{SizeMB: size, Layout: layout, Runtime: rt})
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
	rows := make([][]string, 0, len(points)/2)
	byKey := map[string]sim.Time{}
	var keys []int
	seen := map[int]bool{}
	for _, p := range points {
		k := p.Maps
		if varying == "reduces" {
			k = p.Reduces
		}
		byKey[fmt.Sprintf("%d/%v", k, p.Layout)] = p.Runtime
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		n := byKey[fmt.Sprintf("%d/%v", k, core.Normal)]
		x := byKey[fmt.Sprintf("%d/%v", k, core.CrossDomain)]
		rows = append(rows, []string{
			fmt.Sprintf("%d", k), secs(n), secs(x), fmt.Sprintf("%.2fx", x/n),
		})
	}
	return table([]string{varying, "Normal (s)", "Cross-domain (s)", "Slowdown"}, rows)
}

// Table renders both panels.
func (r Fig3Result) Table() string {
	return "Figure 3(a): MRBench, reduce=1, maps scaling\n" + fig3Table(r.MapSweep, "maps") +
		"\nFigure 3(b): MRBench, map=15, reduces scaling\n" + fig3Table(r.ReduceSweep, "reduces")
}

// Fig3MapCounts returns panel (a)'s sweep.
func Fig3MapCounts(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 3, 4, 5, 6}
}

// Fig3ReduceCounts returns panel (b)'s sweep.
func Fig3ReduceCounts(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 3, 4, 5, 6}
}

func runMRBenchPoint(cfg Config, layout core.Layout, maps, reduces int) (sim.Time, error) {
	rt, err := cfg.avg(func(seed int64) (float64, error) {
		pl := core.MustNewPlatform(cfg.platformOptions(layout, seed))
		var out workloads.MRBenchResult
		_, err := pl.Run(func(p *sim.Proc) error {
			opts := workloads.DefaultMRBenchOptions()
			opts.Maps = maps
			opts.Reduces = reduces
			var err error
			out, err = workloads.RunMRBench(p, pl, opts)
			return err
		})
		return out.AvgTime, err
	})
	return rt, err
}

// RunFig3 measures MRBench under map and reduce scaling for both layouts.
func RunFig3(cfg Config) (Fig3Result, error) {
	var res Fig3Result
	for _, m := range Fig3MapCounts(cfg.Quick) {
		for _, layout := range layouts() {
			rt, err := runMRBenchPoint(cfg, layout, m, 1)
			if err != nil {
				return res, fmt.Errorf("fig3a maps=%d %v: %w", m, layout, err)
			}
			res.MapSweep = append(res.MapSweep, Fig3Point{Maps: m, Reduces: 1, Layout: layout, Runtime: rt})
		}
	}
	for _, r := range Fig3ReduceCounts(cfg.Quick) {
		for _, layout := range layouts() {
			rt, err := runMRBenchReducePoint(cfg, layout, 15, r)
			if err != nil {
				return res, fmt.Errorf("fig3b reduces=%d %v: %w", r, layout, err)
			}
			res.ReduceSweep = append(res.ReduceSweep, Fig3Point{Maps: 15, Reduces: r, Layout: layout, Runtime: rt})
		}
	}
	return res, nil
}

// runMRBenchReducePoint uses MRBench's classic tiny input (the tool's
// default is literally one generated line), where job runtime is framework
// overhead: task JVM setup, heartbeat-quantised scheduling and the
// jobtracker's one-reduce-per-round ramp-up.
func runMRBenchReducePoint(cfg Config, layout core.Layout, maps, reduces int) (sim.Time, error) {
	return cfg.avg(func(seed int64) (float64, error) {
		pl := core.MustNewPlatform(cfg.platformOptions(layout, seed))
		var out workloads.MRBenchResult
		_, err := pl.Run(func(p *sim.Proc) error {
			opts := workloads.DefaultMRBenchOptions()
			opts.Maps = maps
			opts.Reduces = reduces
			opts.BytesPerMap = 2e6
			opts.LinesPerMap = 16
			var err error
			out, err = workloads.RunMRBench(p, pl, opts)
			return err
		})
		return out.AvgTime, err
	})
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
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f MB", p.SizeMB), p.Layout.String(),
			secs(p.GenTime), secs(p.SortTime),
		})
	}
	return table([]string{"Data", "Layout", "TeraGen (s)", "TeraSort (s)"}, rows)
}

// Fig4aSizes returns the data sweep in MB.
func Fig4aSizes(quick bool) []float64 {
	if quick {
		return []float64{100, 1000}
	}
	return []float64{100, 200, 400, 600, 800, 1000}
}

// RunFig4a measures TeraGen and TeraSort times over data size.
func RunFig4a(cfg Config) (Fig4aResult, error) {
	var res Fig4aResult
	for _, size := range Fig4aSizes(cfg.Quick) {
		for _, layout := range layouts() {
			var genSum, sortSum sim.Time
			for rep := 0; rep < cfg.Reps; rep++ {
				pl := core.MustNewPlatform(cfg.platformOptions(layout, cfg.Seed+int64(rep)*1000))
				var out workloads.TeraResult
				_, err := pl.Run(func(p *sim.Proc) error {
					var err error
					out, err = workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(size*1e6))
					return err
				})
				if err != nil {
					return res, fmt.Errorf("fig4a %v %v: %w", size, layout, err)
				}
				if !out.Validated {
					return res, fmt.Errorf("fig4a %v %v: output failed validation", size, layout)
				}
				genSum += out.GenTime
				sortSum += out.SortTime
			}
			res.Points = append(res.Points, Fig4aPoint{
				SizeMB:   size,
				Layout:   layout,
				GenTime:  genSum / sim.Time(cfg.Reps),
				SortTime: sortSum / sim.Time(cfg.Reps),
			})
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
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Kind, p.Layout.String(), fmt.Sprintf("%.1f", p.ThroughputMBps),
		})
	}
	return table([]string{"Operation", "Layout", "Aggregate MB/s"}, rows)
}

// RunFig4b measures DFSIO write then read throughput for both layouts.
func RunFig4b(cfg Config) (Fig4bResult, error) {
	var res Fig4bResult
	files := 8
	fileMB := 128.0
	for _, layout := range layouts() {
		layout := layout
		var wSum, rSum float64
		for rep := 0; rep < cfg.Reps; rep++ {
			pl := core.MustNewPlatform(cfg.platformOptions(layout, cfg.Seed+int64(rep)*1000))
			var w, rr workloads.DFSIOResult
			_, err := pl.Run(func(p *sim.Proc) error {
				opts := workloads.DFSIOOptions{Files: files, FileBytes: fileMB * 1e6}
				var err error
				if w, err = workloads.RunDFSIOWrite(p, pl, opts); err != nil {
					return err
				}
				rr, err = workloads.RunDFSIORead(p, pl, opts)
				return err
			})
			if err != nil {
				return res, fmt.Errorf("fig4b %v: %w", layout, err)
			}
			wSum += w.ThroughputMBps
			rSum += rr.ThroughputMBps
		}
		res.Points = append(res.Points,
			Fig4bPoint{Kind: "write", Layout: layout, ThroughputMBps: wSum / float64(cfg.Reps)},
			Fig4bPoint{Kind: "read", Layout: layout, ThroughputMBps: rSum / float64(cfg.Reps)},
		)
	}
	return res, nil
}
