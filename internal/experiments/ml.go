package experiments

import (
	"fmt"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/sim"
	"vhadoop/internal/viz"
)

// ClusterSizes is the virtual-cluster-size axis of Figures 6 and 7.
func ClusterSizes(quick bool) []int {
	if quick {
		return []int{2, 8}
	}
	return []int{2, 4, 8, 16}
}

// MLPoint is one bar of Figure 6 or 7.
type MLPoint struct {
	Algorithm  string
	Nodes      int
	Runtime    sim.Time
	Centers    int
	Iterations int
}

// MLResult is a clustering runtime sweep.
type MLResult struct {
	Dataset string
	Points  []MLPoint
}

// Table renders runtimes as algorithms x cluster sizes.
func (r MLResult) Table() string {
	sizes := map[int]bool{}
	algos := []string{}
	seenAlgo := map[string]bool{}
	byKey := map[string]sim.Time{}
	var sizeList []int
	for _, p := range r.Points {
		byKey[fmt.Sprintf("%s/%d", p.Algorithm, p.Nodes)] = p.Runtime
		if !seenAlgo[p.Algorithm] {
			seenAlgo[p.Algorithm] = true
			algos = append(algos, p.Algorithm)
		}
		if !sizes[p.Nodes] {
			sizes[p.Nodes] = true
			sizeList = append(sizeList, p.Nodes)
		}
	}
	header := []string{"Algorithm"}
	for _, n := range sizeList {
		header = append(header, fmt.Sprintf("%d nodes (s)", n))
	}
	rows := make([][]string, 0, len(algos))
	for _, a := range algos {
		row := []string{a}
		for _, n := range sizeList {
			row = append(row, secs(byKey[fmt.Sprintf("%s/%d", a, n)]))
		}
		rows = append(rows, row)
	}
	return table(header, rows)
}

// mlAlgo runs one algorithm through a fresh driver and returns the result.
type mlAlgo struct {
	name string
	run  func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error)
}

// controlChartAlgos are Figure 6's three algorithms with Mahout's
// synthetic-control example parameters (T1=80/T2=55 canopy; mean shift with
// the example's bandwidth; Dirichlet with 10 candidate models).
func controlChartAlgos() []mlAlgo {
	return []mlAlgo{
		{name: "canopy", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.CanopyMR(p, d, clustering.CanopyOptions{T1: 80, T2: 55})
		}},
		{name: "dirichlet", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.DirichletMR(p, d, clustering.DefaultDirichletOptions(10))
		}},
		{name: "meanshift", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.MeanShiftMR(p, d, clustering.DefaultMeanShiftOptions(47.6, 20))
		}},
	}
}

// displayAlgos are Figure 7/8's six algorithms with the DisplayClustering
// demo parameters on the 2-D mixture.
func displayAlgos() []mlAlgo {
	kmeansInit := func(d *clustering.Driver) []clustering.Vector { return d.InitCenters(3) }
	return []mlAlgo{
		{name: "canopy", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.CanopyMR(p, d, clustering.CanopyOptions{T1: 3, T2: 1.5})
		}},
		{name: "dirichlet", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.DirichletMR(p, d, clustering.DefaultDirichletOptions(10))
		}},
		{name: "fuzzykmeans", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			opts := clustering.DefaultFuzzyKMeansOptions(3)
			opts.M = 3
			return clustering.FuzzyKMeansMR(p, d, kmeansInit(d), opts)
		}},
		{name: "kmeans", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.KMeansMR(p, d, kmeansInit(d), clustering.DefaultKMeansOptions(3))
		}},
		{name: "meanshift", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.MeanShiftMR(p, d, clustering.DefaultMeanShiftOptions(2, 1))
		}},
		{name: "minhash", run: func(p *sim.Proc, d *clustering.Driver) (clustering.Result, error) {
			return clustering.MinHashMR(p, d, clustering.DefaultMinHashOptions())
		}},
	}
}

// runMLPoint provisions a platform of the given size, loads the vectors and
// runs one algorithm.
func runMLPoint(cfg Config, nodes int, seed int64, vectors []clustering.Vector, algo mlAlgo) (clustering.Result, error) {
	opts := cfg.platformOptions(core.Normal, seed)
	opts.Nodes = nodes
	pl := core.MustNewPlatform(opts)
	d := clustering.NewDriver(pl, "/ml/input")
	var out clustering.Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, vectors); err != nil {
			return err
		}
		var err error
		out, err = algo.run(p, d)
		return err
	})
	return out, err
}

// RunFig6 measures canopy, dirichlet and mean shift on the Synthetic
// Control Chart data set across virtual cluster sizes.
func RunFig6(cfg Config) (MLResult, error) {
	perClass := 100
	if cfg.Quick {
		perClass = 30
	}
	return sweepML(cfg, "fig6", "synthetic-control", controlChartAlgos(), func(seed int64) []clustering.Vector {
		series := datasets.ControlChart(sim.New(seed).Rand(),
			datasets.ControlChartOptions{PerClass: perClass, Length: 60})
		return clustering.FromFloats(datasets.ControlVectors(series))
	})
}

// RunFig7 measures all six algorithms on the 1000-sample DisplayClustering
// mixture across virtual cluster sizes.
func RunFig7(cfg Config) (MLResult, error) {
	return sweepML(cfg, "fig7", "display-clustering", displayAlgos(), func(seed int64) []clustering.Vector {
		pts, _ := datasets.DisplayClusteringSample(sim.New(seed).Rand())
		return clustering.FromFloats(pts)
	})
}

// sweepML runs every algorithm at every cluster size, averaging the
// runtime over cfg.Reps repetitions; each rep draws its vectors from its
// own seed.
func sweepML(cfg Config, fig, dataset string, algos []mlAlgo, vectors func(seed int64) []clustering.Vector) (MLResult, error) {
	res := MLResult{Dataset: dataset}
	for _, algo := range algos {
		for _, nodes := range ClusterSizes(cfg.Quick) {
			var sum sim.Time
			var last clustering.Result
			for rep := 0; rep < cfg.Reps; rep++ {
				seed := cfg.Seed + int64(rep)*1000
				out, err := runMLPoint(cfg, nodes, seed, vectors(seed), algo)
				if err != nil {
					return res, fmt.Errorf("%s %s n=%d: %w", fig, algo.name, nodes, err)
				}
				sum += out.Runtime
				last = out
			}
			res.Points = append(res.Points, MLPoint{
				Algorithm:  algo.name,
				Nodes:      nodes,
				Runtime:    sum / sim.Time(cfg.Reps),
				Centers:    len(last.Centers),
				Iterations: last.Iterations,
			})
		}
	}
	return res, nil
}

// Fig8Result carries the rendered convergence visualisations.
type Fig8Result struct {
	// SVGs maps panel name (sample-data plus each algorithm) to an SVG
	// document, in the paper's panel order.
	SVGs  map[string]string
	Order []string
}

// RunFig8 runs the six algorithms once on the standard mixture (8-node
// cluster) and renders each one's convergence as SVG, plus the raw sample
// panel.
func RunFig8(cfg Config) (Fig8Result, error) {
	res := Fig8Result{SVGs: make(map[string]string)}
	pts, _ := datasets.DisplayClusteringSample(sim.New(cfg.Seed).Rand())
	vecs := clustering.FromFloats(pts)

	res.Order = append(res.Order, "sample-data")
	res.SVGs["sample-data"] = viz.RenderClusters(vecs, clustering.Result{}, viz.DefaultOptions("Sample Data"))

	for _, algo := range displayAlgos() {
		out, err := runMLPoint(cfg, 8, cfg.Seed, vecs, algo)
		if err != nil {
			return res, fmt.Errorf("fig8 %s: %w", algo.name, err)
		}
		res.Order = append(res.Order, algo.name)
		res.SVGs[algo.name] = viz.RenderClusters(vecs, out, viz.DefaultOptions(algo.name))
	}
	return res, nil
}
