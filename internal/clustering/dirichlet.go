package clustering

import (
	"fmt"
	"hash/fnv"
	"math"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// DirichletOptions configures Dirichlet process clustering (Mahout's
// DirichletDriver): Bayesian mixture modelling over K candidate components
// with a symmetric Dirichlet prior of concentration Alpha.
type DirichletOptions struct {
	K       int // candidate model components (Mahout's numModels)
	MaxIter int
	Alpha   float64 // Dirichlet concentration (Mahout default 1.0)
}

// DefaultDirichletOptions mirrors Mahout 0.6 defaults.
func DefaultDirichletOptions(k int) DirichletOptions {
	return DirichletOptions{K: k, MaxIter: 10, Alpha: 1.0}
}

// normalModel is a spherical Gaussian mixture component with weight.
type normalModel struct {
	Mean   Vector
	Stddev float64
	Weight float64
}

// logPdf is the spherical Gaussian log density (up to the shared constant).
func (m normalModel) logPdf(v Vector) float64 {
	d := SquaredEuclidean(v, m.Mean)
	s2 := m.Stddev * m.Stddev
	return -0.5*d/s2 - float64(len(v))*math.Log(m.Stddev)
}

// dirichletInit seeds K components from the data spread.
func dirichletInit(vectors []Vector, k int) []normalModel {
	dim := len(vectors[0])
	mean := Mean(vectors)
	// Global stddev estimate.
	var ss float64
	for _, v := range vectors {
		ss += SquaredEuclidean(v, mean)
	}
	sd := math.Sqrt(ss/float64(len(vectors))/float64(dim)) + 1e-9
	models := make([]normalModel, k)
	for i := range models {
		c := vectors[(i*len(vectors))/k].Clone()
		models[i] = normalModel{Mean: c, Stddev: sd, Weight: 1 / float64(k)}
	}
	return models
}

// assignComponent picks the component for v: a deterministic pseudo-random
// draw from the posterior (hash-seeded so mappers need no shared RNG and the
// simulation stays reproducible).
func assignComponent(v Vector, id string, iter int, models []normalModel) int {
	logp := make([]float64, len(models))
	maxLog := math.Inf(-1)
	for i, m := range models {
		logp[i] = math.Log(m.Weight+1e-12) + m.logPdf(v)
		if logp[i] > maxLog {
			maxLog = logp[i]
		}
	}
	var total float64
	for i := range logp {
		logp[i] = math.Exp(logp[i] - maxLog)
		total += logp[i]
	}
	// Deterministic uniform draw in [0,1) from the (id, iter) pair.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, iter)
	u := float64(h.Sum64()%1e9) / 1e9 * total
	for i, p := range logp {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return len(models) - 1
}

// dirichletPosterior folds assigned-point statistics into updated models.
func dirichletPosterior(acc []*partial, prior []normalModel, n int, alpha float64) []normalModel {
	out := make([]normalModel, len(prior))
	for i, a := range acc {
		m := prior[i]
		if a != nil && a.count > 0 {
			mean := a.sum.Clone()
			mean.Scale(1 / float64(a.count))
			// Per-dimension variance from the sufficient statistics.
			var varSum float64
			for j := range mean {
				ex2 := a.sumSq[j] / float64(a.count)
				varSum += ex2 - mean[j]*mean[j]
			}
			sd := math.Sqrt(math.Max(varSum/float64(len(mean)), 1e-6))
			m.Mean = mean
			m.Stddev = 0.5*m.Stddev + 0.5*sd // smoothed update
		}
		count := 0.0
		if a != nil {
			count = float64(a.count)
		}
		m.Weight = (count + alpha/float64(len(prior))) / (float64(n) + alpha)
		out[i] = m
	}
	return out
}

// dirichletStep runs one Gibbs-style iteration in memory.
func dirichletStep(vectors []Vector, models []normalModel, iter int, alpha float64) []normalModel {
	dim := len(vectors[0])
	acc := make([]*partial, len(models))
	for i, v := range vectors {
		// Record IDs match datasets.VectorRecords so the reference and the
		// MapReduce run draw identical assignments.
		c := assignComponent(v, fmt.Sprintf("v%06d", i), iter, models)
		if acc[c] == nil {
			acc[c] = newPartial(dim, true)
		}
		acc[c].sum.Add(v)
		for j := range v {
			acc[c].sumSq[j] += v[j] * v[j]
		}
		acc[c].count++
	}
	return dirichletPosterior(acc, models, len(vectors), alpha)
}

// modelsToResult finalises a Result from the mixture: significant components
// become centers; points are assigned by maximum posterior.
func modelsToResult(vectors []Vector, models []normalModel, res Result) Result {
	for _, m := range models {
		res.Centers = append(res.Centers, m.Mean)
	}
	res.Assignments = make([]int, len(vectors))
	for i, v := range vectors {
		best, bestP := 0, math.Inf(-1)
		for c, m := range models {
			if lp := math.Log(m.Weight+1e-12) + m.logPdf(v); lp > bestP {
				best, bestP = c, lp
			}
		}
		res.Assignments[i] = best
	}
	return res
}

// Dirichlet is the in-memory reference implementation.
func Dirichlet(vectors []Vector, opts DirichletOptions) (Result, error) {
	if _, err := checkDims(vectors); err != nil {
		return Result{}, err
	}
	if opts.K < 1 || opts.MaxIter < 1 {
		return Result{}, fmt.Errorf("clustering: dirichlet needs K >= 1 and MaxIter >= 1")
	}
	models := dirichletInit(vectors, opts.K)
	res := Result{Algorithm: "dirichlet"}
	for iter := 0; iter < opts.MaxIter; iter++ {
		models = dirichletStep(vectors, models, iter, opts.Alpha)
		res.Iterations++
		centers := make([]Vector, len(models))
		for i, m := range models {
			centers[i] = m.Mean
		}
		res.History = append(res.History, centers)
	}
	return modelsToResult(vectors, models, res), nil
}

// dirichletMapper samples a component per point and emits its sufficient
// statistics (sum, sum of squares, count).
type dirichletMapper struct {
	models []normalModel
	iter   int
}

func (m *dirichletMapper) Map(key string, value any, emit mapreduce.Emit) {
	v := Vector(value.([]float64))
	c := assignComponent(v, key, m.iter, m.models)
	pt := newPartial(len(v), true)
	pt.sum.Add(v)
	for j := range v {
		pt.sumSq[j] += v[j] * v[j]
	}
	pt.count = 1
	emit(clusterKey(c), pt, partialSize(len(v))*2)
}

// DirichletMR runs Dirichlet process clustering as per-iteration MapReduce
// jobs: mappers sample assignments against the current mixture (shipped as
// side input), the reducer updates each component's posterior, and the
// driver re-normalises the mixture weights.
func DirichletMR(p *sim.Proc, d *Driver, opts DirichletOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if opts.K < 1 || opts.MaxIter < 1 {
		return Result{}, fmt.Errorf("clustering: dirichlet needs K >= 1 and MaxIter >= 1")
	}
	models := dirichletInit(d.vectors, opts.K)
	res := Result{Algorithm: "dirichlet"}
	start := p.Now()
	for iter := 0; iter < opts.MaxIter; iter++ {
		captured := models
		capIter := iter
		out, err := d.iterate(p, &res, len(models), d.perRecordCost(len(models)),
			func() mapreduce.Mapper { return &dirichletMapper{models: captured, iter: capIter} },
			func() mapreduce.Reducer {
				return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
					acc := sumPartials(values)
					emit(key, acc, partialSize(len(acc.sum))*2)
				})
			},
			kmeansCombiner)
		if err != nil {
			return res, err
		}

		acc := make([]*partial, len(models))
		for _, kv := range out {
			idx, err := reduceIndex(kv.Key, len(models))
			if err != nil {
				return res, err
			}
			acc[idx] = kv.Value.(*partial)
		}
		models = dirichletPosterior(acc, models, len(d.vectors), opts.Alpha)
		centers := make([]Vector, len(models))
		for i, m := range models {
			centers[i] = m.Mean
		}
		res.History = append(res.History, centers)
	}
	res = modelsToResult(d.vectors, models, res)
	res.Runtime = p.Now() - start
	return res, nil
}
