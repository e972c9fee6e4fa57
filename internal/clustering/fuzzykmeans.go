package clustering

import (
	"fmt"
	"math"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// FuzzyKMeansOptions configures fuzzy k-means (Mahout's FuzzyKMeansDriver).
type FuzzyKMeansOptions struct {
	K       int
	MaxIter int
	Epsilon float64
	M       float64 // fuzziness exponent, > 1 (Mahout default 2)
}

// DefaultFuzzyKMeansOptions mirrors Mahout 0.6 defaults.
func DefaultFuzzyKMeansOptions(k int) FuzzyKMeansOptions {
	return FuzzyKMeansOptions{K: k, MaxIter: 10, Epsilon: 0.001, M: 2}
}

// memberships computes the fuzzy membership of v in every center:
// u_i = 1 / sum_j (d_i/d_j)^(2/(m-1)), with d the Euclidean distance. A zero
// distance collapses to a hard assignment.
func memberships(v Vector, centers []Vector, m float64) []float64 {
	return membershipsInto(v, centers, m, nil, nil)
}

// membershipsInto is memberships with caller-owned scratch: ds holds the
// per-center distances and u receives the result (both grown as needed; the
// returned slice aliases u). For Mahout's default m=2 the exponent is
// exactly 2, so the ratio is squared directly instead of through math.Pow —
// the same rounding, an order of magnitude less CPU.
func membershipsInto(v Vector, centers []Vector, m float64, ds, u []float64) []float64 {
	k := len(centers)
	if cap(ds) < k {
		ds = make([]float64, k)
	}
	ds = ds[:k]
	if cap(u) < k {
		u = make([]float64, k)
	}
	u = u[:k]
	for i, c := range centers {
		ds[i] = Euclidean(v, c)
		if ds[i] == 0 {
			for j := range u {
				u[j] = 0
			}
			u[i] = 1
			return u
		}
	}
	exp := 2 / (m - 1)
	square := exp == 2
	for i := range centers {
		var s float64
		for j := range centers {
			r := ds[i] / ds[j]
			if square {
				s += r * r
			} else {
				s += math.Pow(r, exp)
			}
		}
		u[i] = 1 / s
	}
	return u
}

// powM raises x to the fuzziness exponent, multiplying directly when m=2
// (bit-identical to math.Pow's repeated-squaring result).
func powM(x, m float64) float64 {
	if m == 2 {
		return x * x
	}
	return math.Pow(x, m)
}

// fuzzyStep performs one fuzzy c-means update of the centers.
func fuzzyStep(vectors, centers []Vector, m float64) []Vector {
	dim := len(vectors[0])
	acc := make([]*partial, len(centers))
	for i := range acc {
		acc[i] = newPartial(dim, false)
	}
	ds := make([]float64, len(centers))
	u := make([]float64, len(centers))
	for _, v := range vectors {
		membershipsInto(v, centers, m, ds, u)
		for i := range centers {
			w := powM(u[i], m)
			acc[i].sum.AddScaled(v, w)
			acc[i].weight += w
		}
	}
	out := make([]Vector, len(centers))
	for i, a := range acc {
		if a.weight == 0 {
			out[i] = centers[i].Clone()
			continue
		}
		c := a.sum.Clone()
		c.Scale(1 / a.weight)
		out[i] = c
	}
	return out
}

// FuzzyKMeans is the in-memory reference implementation.
func FuzzyKMeans(vectors []Vector, initial []Vector, opts FuzzyKMeansOptions) (Result, error) {
	dim, err := checkDims(vectors)
	if err != nil {
		return Result{}, err
	}
	if err := checkCenters(initial, dim); err != nil {
		return Result{}, err
	}
	if opts.M <= 1 {
		return Result{}, fmt.Errorf("clustering: fuzziness m must exceed 1, got %v", opts.M)
	}
	centers := cloneAll(initial)
	res := Result{Algorithm: "fuzzykmeans"}
	for iter := 0; iter < opts.MaxIter; iter++ {
		next := fuzzyStep(vectors, centers, opts.M)
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

// fuzzyMapper emits a weighted partial toward every center for each vector.
// ds and u are per-mapper scratch reused across records, so the membership
// computation allocates nothing per point.
type fuzzyMapper struct {
	centers []Vector
	m       float64
	ds, u   []float64
}

func (fm *fuzzyMapper) Map(_ string, value any, emit mapreduce.Emit) {
	v := Vector(value.([]float64))
	if fm.ds == nil {
		fm.ds = make([]float64, len(fm.centers))
		fm.u = make([]float64, len(fm.centers))
	}
	membershipsInto(v, fm.centers, fm.m, fm.ds, fm.u)
	for i := range fm.centers {
		w := powM(fm.u[i], fm.m)
		emit(clusterKey(i), scaledPartialOf(v, w), partialSize(len(v)))
	}
}

// FuzzyKMeansMR runs fuzzy k-means as per-iteration MapReduce jobs.
func FuzzyKMeansMR(p *sim.Proc, d *Driver, initial []Vector, opts FuzzyKMeansOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if err := checkCenters(initial, len(d.vectors[0])); err != nil {
		return Result{}, err
	}
	if opts.M <= 1 {
		return Result{}, fmt.Errorf("clustering: fuzziness m must exceed 1, got %v", opts.M)
	}
	centers := cloneAll(initial)
	res := Result{Algorithm: "fuzzykmeans"}
	start := p.Now()
	reducer := func() mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
			acc := sumPartials(values)
			if acc.weight == 0 {
				return
			}
			c := acc.sum.Clone()
			c.Scale(1 / acc.weight)
			emit(key, c, float64(len(c)*8+16))
		})
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		captured := centers
		out, err := d.iterate(p, &res, len(centers), 2*d.perRecordCost(len(centers)), // pow() on top of distances
			func() mapreduce.Mapper { return &fuzzyMapper{centers: captured, m: opts.M} },
			reducer, kmeansCombiner)
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
