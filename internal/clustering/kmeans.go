package clustering

import (
	"fmt"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// KMeansOptions configures k-means (Mahout's KMeansDriver parameters).
type KMeansOptions struct {
	K       int
	MaxIter int
	Epsilon float64 // convergence: stop when no center moves further
}

// DefaultKMeansOptions mirrors Mahout 0.6 defaults.
func DefaultKMeansOptions(k int) KMeansOptions {
	return KMeansOptions{K: k, MaxIter: 10, Epsilon: 0.001}
}

// kmeansStep computes one Lloyd iteration: assign each vector to its nearest
// center and return the new centroids (empty clusters keep their center).
// Both the reference implementation and the MapReduce reducer use this exact
// arithmetic, so the two paths agree.
func kmeansStep(vectors, centers []Vector) []Vector {
	dim := len(vectors[0])
	acc := make([]*partial, len(centers))
	for i := range acc {
		acc[i] = newPartial(dim, false)
	}
	for _, v := range vectors {
		c, _ := NearestSquared(v, centers)
		acc[c].sum.Add(v)
		acc[c].count++
	}
	out := make([]Vector, len(centers))
	for i, a := range acc {
		if a.count == 0 {
			out[i] = centers[i].Clone()
			continue
		}
		c := a.sum.Clone()
		c.Scale(1 / float64(a.count))
		out[i] = c
	}
	return out
}

// KMeans is the in-memory reference implementation.
func KMeans(vectors []Vector, initial []Vector, opts KMeansOptions) (Result, error) {
	dim, err := checkDims(vectors)
	if err != nil {
		return Result{}, err
	}
	if err := checkCenters(initial, dim); err != nil {
		return Result{}, err
	}
	centers := cloneAll(initial)
	res := Result{Algorithm: "kmeans"}
	for iter := 0; iter < opts.MaxIter; iter++ {
		next := kmeansStep(vectors, centers)
		res.Iterations++
		res.History = append(res.History, next)
		shift := maxShift(centers, next)
		centers = next
		if shift <= opts.Epsilon {
			break
		}
	}
	res.Centers = centers
	res.Assignments = Assignments(vectors, centers)
	return res, nil
}

// kmeansMapper assigns each input vector to its nearest current center and
// emits the point itself toward that center; sumPartials folds it as a
// count-1 partial.
type kmeansMapper struct{ centers []Vector }

func (m *kmeansMapper) Map(_ string, value any, emit mapreduce.Emit) {
	v := Vector(value.([]float64))
	c, _ := NearestSquared(v, m.centers)
	emit(clusterKey(c), value, partialSize(len(v)))
}

// kmeansReducer folds partials into the new centroid.
func kmeansReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
		acc := sumPartials(values)
		c := acc.sum.Clone()
		c.Scale(1 / float64(acc.count))
		emit(key, c, float64(len(c)*8+16))
	})
}

// kmeansCombiner pre-folds partials map-side.
func kmeansCombiner() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
		acc := sumPartials(values)
		emit(key, acc, partialSize(len(acc.sum)))
	})
}

// KMeansMR runs k-means as per-iteration MapReduce jobs on the driver's
// platform, exactly as Mahout's KMeansDriver does: each iteration ships the
// current centers to every mapper (side input), maps emit partial sums per
// cluster, a combiner folds them map-side and one reducer produces the new
// centers.
func KMeansMR(p *sim.Proc, d *Driver, initial []Vector, opts KMeansOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if err := checkCenters(initial, len(d.vectors[0])); err != nil {
		return Result{}, err
	}
	centers := cloneAll(initial)
	res := Result{Algorithm: "kmeans"}
	start := p.Now()
	for iter := 0; iter < opts.MaxIter; iter++ {
		captured := centers
		out, err := d.iterate(p, &res, len(centers), d.perRecordCost(len(centers)),
			func() mapreduce.Mapper { return &kmeansMapper{centers: captured} },
			kmeansReducer, kmeansCombiner)
		if err != nil {
			return res, err
		}
		next, err := nextCenters(out, centers)
		if err != nil {
			return res, err
		}
		res.History = append(res.History, next)
		shift := maxShift(centers, next)
		centers = next
		if shift <= opts.Epsilon {
			break
		}
	}
	res.Centers = centers
	res.Assignments = Assignments(d.vectors, centers)
	res.Runtime = p.Now() - start
	return res, nil
}
