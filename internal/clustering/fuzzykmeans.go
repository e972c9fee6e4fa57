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

// membershipsInto computes the fuzzy membership of v in every center:
// u_i = 1 / sum_j (d_i/d_j)^(2/(m-1)), with d the Euclidean distance. A zero
// distance collapses to a hard assignment. The scratch is the caller's: ds
// holds the per-center distances and u receives the result (both grown as
// needed; the returned slice aliases u). For Mahout's default m=2 the
// exponent is exactly 2, so the ratio is squared directly instead of through
// math.Pow — the same rounding, an order of magnitude less CPU.
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
