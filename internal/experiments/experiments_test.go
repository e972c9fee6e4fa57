package experiments

import (
	"fmt"
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
)

func quickCfg() Config {
	// Three repetitions, like the paper's protocol: single runs of small
	// jobs are sensitive to placement randomness.
	return Config{Seed: 1, Reps: 3, Nodes: 16, Quick: true}
}

func find2(t *testing.T, r Fig2Result, size float64, layout core.Layout) sim.Time {
	t.Helper()
	for _, p := range r.Points {
		if p.SizeMB == size && p.Layout == layout {
			return p.Runtime
		}
	}
	t.Fatalf("missing fig2 point %v/%v", size, layout)
	return 0
}

func TestTable1ContainsAllBenchmarks(t *testing.T) {
	out := Table1()
	for _, name := range []string{"Wordcount", "MRBench", "TeraSort", "DFSIOTest"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table 1 missing %s:\n%s", name, out)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	res, err := RunFig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sizes := Fig2Sizes(true)
	small, large := sizes[0], sizes[len(sizes)-1]
	// Runtime grows with input size.
	if find2(t, res, large, core.Normal) <= find2(t, res, small, core.Normal) {
		t.Fatal("runtime does not grow with input size")
	}
	// The layouts track each other closely for this cache-friendly job
	// (the paper notes they are "very similar" until the network
	// saturates); cross-domain must never win by a meaningful margin.
	gapSmall := find2(t, res, small, core.CrossDomain) / find2(t, res, small, core.Normal)
	gapLarge := find2(t, res, large, core.CrossDomain) / find2(t, res, large, core.Normal)
	if gapSmall < 0.9 || gapLarge < 0.9 {
		t.Fatalf("cross-domain meaningfully faster than normal: small=%v large=%v", gapSmall, gapLarge)
	}
	if !strings.Contains(res.Table(), "Slowdown") {
		t.Fatal("table missing")
	}
}

// TestFig2TableRowsFollowSweep pins the table's rows to the sweep's size
// order. Table groups the points by size through maps; rows taken from a
// map walk would come out in map order, which a rerun of the two-size
// quick sweep shows only now and then, so the five-size sweep is
// rendered 32 times.
func TestFig2TableRowsFollowSweep(t *testing.T) {
	var res Fig2Result
	for i, size := range Fig2Sizes(false) {
		for _, layout := range layouts() {
			res.Points = append(res.Points, Fig2Point{SizeMB: size, Layout: layout, Runtime: sim.Time(10 + i)})
		}
	}
	for r := 0; r < 32; r++ {
		tbl := res.Table()
		last := -1
		for _, size := range Fig2Sizes(false) {
			i := strings.Index(tbl, fmt.Sprintf("\n%.0f MB", size))
			if i <= last {
				t.Fatalf("round %d: the %.0f MB row is out of sweep order:\n%s", r, size, tbl)
			}
			last = i
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	res, err := RunFig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(points []Fig3Point, key int, layout core.Layout, byReduce bool) sim.Time {
		for _, p := range points {
			k := p.Maps
			if byReduce {
				k = p.Reduces
			}
			if k == key && p.Layout == layout {
				return p.Runtime
			}
		}
		t.Fatalf("missing fig3 point %d/%v", key, layout)
		return 0
	}
	maps := Fig3MapCounts(true)
	if get(res.MapSweep, maps[len(maps)-1], core.Normal, false) <= get(res.MapSweep, maps[0], core.Normal, false) {
		t.Fatal("MRBench runtime does not grow with maps")
	}
	reduces := Fig3ReduceCounts(true)
	if get(res.ReduceSweep, reduces[len(reduces)-1], core.Normal, true) <= get(res.ReduceSweep, reduces[0], core.Normal, true) {
		t.Fatal("MRBench runtime does not grow with reduces")
	}
	// Cross-domain at the top of the sweep must not win meaningfully (the
	// filer serialises this job's data path in both layouts).
	top := maps[len(maps)-1]
	if get(res.MapSweep, top, core.CrossDomain, false) < get(res.MapSweep, top, core.Normal, false)*0.9 {
		t.Fatal("cross-domain MRBench meaningfully faster (map sweep)")
	}
}

func TestFig4aShapes(t *testing.T) {
	res, err := RunFig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(size float64, layout core.Layout) Fig4aPoint {
		for _, p := range res.Points {
			if p.SizeMB == size && p.Layout == layout {
				return p
			}
		}
		t.Fatalf("missing fig4a point %v/%v", size, layout)
		return Fig4aPoint{}
	}
	sizes := Fig4aSizes(true)
	small, large := get(sizes[0], core.Normal), get(sizes[len(sizes)-1], core.Normal)
	if large.SortTime <= small.SortTime || large.GenTime <= small.GenTime {
		t.Fatalf("terasort does not scale with size: %+v vs %+v", small, large)
	}
	// The knee: going 10x in size costs far more than 10/4x in sort time
	// once reduce-side merges spill (data outgrows the sort buffers).
	if large.SortTime < 2.5*small.SortTime {
		t.Fatalf("no spill knee: sort %v -> %v", small.SortTime, large.SortTime)
	}
	// Generation is filer-write-bound in both layouts (parity); neither
	// phase may be meaningfully faster cross-domain.
	x := get(sizes[len(sizes)-1], core.CrossDomain)
	if x.GenTime < large.GenTime*0.95 || x.SortTime < large.SortTime*0.9 {
		t.Fatalf("cross-domain terasort meaningfully faster: gen %.1f/%.1f sort %.1f/%.1f",
			x.GenTime, large.GenTime, x.SortTime, large.SortTime)
	}
}

func TestFig4bShapes(t *testing.T) {
	res, err := RunFig4b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(kind string, layout core.Layout) float64 {
		for _, p := range res.Points {
			if p.Kind == kind && p.Layout == layout {
				return p.ThroughputMBps
			}
		}
		t.Fatalf("missing fig4b point %s/%v", kind, layout)
		return 0
	}
	if get("read", core.Normal) <= get("write", core.Normal) {
		t.Fatal("read throughput not above write")
	}
	if get("read", core.CrossDomain) >= get("read", core.Normal)*0.8 {
		t.Fatal("cross-domain read not clearly slower")
	}
	if get("write", core.CrossDomain) > get("write", core.Normal)*1.02 {
		t.Fatal("cross-domain write faster than normal")
	}
}

func TestFig5AndTable2Shapes(t *testing.T) {
	cfg := quickCfg()
	cfg.Nodes = 4 // keep the busy scenario tractable in a unit test
	res, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idle1024 := res.Runs["idle.1024MB"]
	idle512 := res.Runs["idle.512MB"]
	wc1024 := res.Runs["wordcount.1024MB"]
	// (i) larger memory -> longer migration; downtime uncorrelated.
	if idle1024.OverallTime <= idle512.OverallTime {
		t.Fatal("migration time does not grow with memory")
	}
	// (ii) loaded cluster migrates slower with much larger downtime.
	if wc1024.OverallTime <= idle1024.OverallTime {
		t.Fatal("busy migration not slower than idle")
	}
	if wc1024.OverallDowntime <= 3*idle1024.OverallDowntime {
		t.Fatalf("busy downtime (%v) not much larger than idle (%v)",
			wc1024.OverallDowntime, idle1024.OverallDowntime)
	}
	// (iii) downtime varies across loaded nodes.
	lo, hi := wc1024.PerVM[0].Downtime, wc1024.PerVM[0].Downtime
	for _, s := range wc1024.PerVM[1:] {
		lo, hi = min(lo, s.Downtime), max(hi, s.Downtime)
	}
	if hi <= lo {
		t.Fatal("no downtime variance under load")
	}
	if !strings.Contains(res.Table2(), "Overall Downtime") {
		t.Fatal("table 2 missing")
	}
	if !strings.Contains(res.PerVMTable(), "Downtime (ms)") {
		t.Fatal("per-VM table missing")
	}
}

func TestFig6RuntimeGrowsWithClusterSize(t *testing.T) {
	res, err := RunFig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sizes := ClusterSizes(true)
	small, large := sizes[0], sizes[len(sizes)-1]
	for _, algo := range []string{"canopy", "dirichlet", "meanshift"} {
		var tSmall, tLarge sim.Time
		for _, p := range res.Points {
			if p.Algorithm == algo && p.Nodes == small {
				tSmall = p.Runtime
			}
			if p.Algorithm == algo && p.Nodes == large {
				tLarge = p.Runtime
			}
		}
		if tLarge <= tSmall {
			t.Fatalf("%s: %d-node runtime (%v) not above %d-node (%v)", algo, large, tLarge, small, tSmall)
		}
	}
}

func TestFig7RelativelySmooth(t *testing.T) {
	res, err := RunFig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string][]sim.Time{}
	for _, p := range res.Points {
		algos[p.Algorithm] = append(algos[p.Algorithm], p.Runtime)
	}
	if len(algos) != 6 {
		t.Fatalf("algorithms = %d, want 6", len(algos))
	}
	for algo, times := range algos {
		min, max := times[0], times[0]
		for _, x := range times {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		// "Performs relatively smooth as the size scales": bounded spread.
		if max > 3*min {
			t.Fatalf("%s varies too much across cluster sizes: %v..%v", algo, min, max)
		}
	}
}

func TestFig8ProducesAllPanels(t *testing.T) {
	res, err := RunFig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sample-data", "canopy", "dirichlet", "fuzzykmeans", "kmeans", "meanshift", "minhash"}
	if len(res.Order) != len(want) {
		t.Fatalf("panels = %v", res.Order)
	}
	for _, name := range want {
		svg := res.SVGs[name]
		if !strings.HasPrefix(svg, "<svg") {
			t.Fatalf("panel %s missing or malformed", name)
		}
	}
	// Iterative panels must show convergence colours.
	if !strings.Contains(res.SVGs["kmeans"], "#d62728") {
		t.Fatal("kmeans panel lacks the bold red final iteration")
	}
}

func TestJobsvcStudyShapes(t *testing.T) {
	res, err := RunJobsvc(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []JobsvcShape{res.Mixed, res.Uniform} {
		if s.Result.Admitted != s.Opts.Jobs || s.Result.Rejected != 0 {
			t.Fatalf("%s: admitted %d rejected %d of %d jobs", s.Name, s.Result.Admitted, s.Result.Rejected, s.Opts.Jobs)
		}
	}
	if j := res.Uniform.Result.Jain; j < 0.9 {
		t.Fatalf("uniform-shape Jain index = %.3f, want >= 0.9", j)
	}
	// The quick mixed shape (16 nodes, seed 1, 20 tenants x 200 jobs) waits
	// 803.70 s at p99; the bound leaves 10 % for deliberate scheduler tweaks.
	if w := float64(res.Mixed.Result.P99Wait); w > 884.07 {
		t.Fatalf("mixed-shape p99 wait = %.2f s, want <= 884.07 s", w)
	}
	tbl := res.Table()
	for _, want := range []string{"mixed", "uniform", "Jain"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if !strings.Contains(res.MetricsLines(), "jobsvc-bench shape=uniform") {
		t.Fatalf("metrics lines malformed:\n%s", res.MetricsLines())
	}
}
