package experiments

import (
	"fmt"
	"math/rand"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/sim"
	"vhadoop/internal/viz"
)

// ClusterSizes is the virtual-cluster-size axis of Figures 6 and 7.
func ClusterSizes(quick bool) []int { return sweep(quick, []int{2, 8}, []int{2, 4, 8, 16}) }

// MLPoint is one bar of Figure 6 or 7.
type MLPoint struct {
	Algorithm string
	Nodes     int
	Runtime   sim.Time
}

// MLResult is a clustering runtime sweep.
type MLResult struct {
	Points []MLPoint
}

// Table renders runtimes as algorithms x cluster sizes.
func (r MLResult) Table() string {
	return pivot("Algorithm", r.Points, func(p MLPoint) (string, string, sim.Time) {
		return p.Algorithm, fmt.Sprintf("%d nodes (s)", p.Nodes), p.Runtime
	}, false)
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

// runMLPoint loads the vectors into HDFS and runs one algorithm on them.
func runMLPoint(p *sim.Proc, pl *core.Platform, vectors []clustering.Vector, algo mlAlgo) (clustering.Result, error) {
	d := clustering.NewDriver(pl, "/ml/input")
	if err := d.Load(p, vectors); err != nil {
		return clustering.Result{}, err
	}
	return algo.run(p, d)
}

// RunFig6 measures canopy, dirichlet and mean shift on the Synthetic
// Control Chart data set across virtual cluster sizes.
func RunFig6(cfg Config) (MLResult, error) {
	perClass := 100
	if cfg.Quick {
		perClass = 30
	}
	return sweepML(cfg, controlChartAlgos(), func(seed int64) []clustering.Vector {
		series := datasets.ControlChart(rand.New(rand.NewSource(seed)),
			datasets.ControlChartOptions{PerClass: perClass, Length: 60})
		return clustering.FromFloats(datasets.ControlVectors(series))
	})
}

// RunFig7 measures all six algorithms on the 1000-sample DisplayClustering
// mixture across virtual cluster sizes.
func RunFig7(cfg Config) (MLResult, error) {
	return sweepML(cfg, displayAlgos(), func(seed int64) []clustering.Vector {
		pts, _ := datasets.DisplayClusteringSample(rand.New(rand.NewSource(seed)))
		return clustering.FromFloats(pts)
	})
}

// sweepML runs every algorithm at every cluster size, averaging the
// runtime over cfg.Reps repetitions; each rep draws its vectors from its
// own seed.
func sweepML(cfg Config, algos []mlAlgo, vectors func(seed int64) []clustering.Vector) (MLResult, error) {
	var res MLResult
	for _, algo := range algos {
		for _, nodes := range ClusterSizes(cfg.Quick) {
			opts := cfg.options(core.Normal)
			opts.Nodes = nodes
			rt, err := cfg.avg(opts, func(p *sim.Proc, pl *core.Platform) ([]float64, error) {
				out, err := runMLPoint(p, pl, vectors(pl.Opts.Seed), algo)
				return []float64{out.Runtime}, err
			})
			if err != nil {
				return res, fmt.Errorf("%s n=%d: %w", algo.name, nodes, err)
			}
			res.Points = append(res.Points, MLPoint{Algorithm: algo.name, Nodes: nodes, Runtime: rt[0]})
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
	pts, _ := datasets.DisplayClusteringSample(rand.New(rand.NewSource(cfg.Seed)))
	vecs := clustering.FromFloats(pts)

	res.Order = append(res.Order, "sample-data")
	res.SVGs["sample-data"] = viz.RenderClusters(vecs, clustering.Result{}, viz.DefaultOptions("Sample Data"))

	for _, algo := range displayAlgos() {
		var out clustering.Result
		opts := cfg.options(core.Normal)
		opts.Nodes = 8
		err := runOn(opts, func(p *sim.Proc, pl *core.Platform) (err error) {
			out, err = runMLPoint(p, pl, vecs, algo)
			return err
		})
		if err != nil {
			return res, fmt.Errorf("%s: %w", algo.name, err)
		}
		res.Order = append(res.Order, algo.name)
		res.SVGs[algo.name] = viz.RenderClusters(vecs, out, viz.DefaultOptions(algo.name))
	}
	return res, nil
}
