package clustering

import (
	"fmt"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// MeanShiftOptions configures mean-shift canopy clustering (Mahout's
// MeanShiftCanopyDriver): every point starts as a canopy; canopies shift to
// the mean of the points within T1 and merge when they come within T2.
type MeanShiftOptions struct {
	T1, T2  float64
	MaxIter int
	Epsilon float64 // converged when no center shifts further than this
}

// DefaultMeanShiftOptions mirrors Mahout 0.6 defaults (10 iterations cap).
func DefaultMeanShiftOptions(t1, t2 float64) MeanShiftOptions {
	return MeanShiftOptions{T1: t1, T2: t2, MaxIter: 10, Epsilon: 0.001}
}

func validateMeanShift(opts MeanShiftOptions) error {
	if opts.T1 <= opts.T2 || opts.T2 <= 0 {
		return fmt.Errorf("clustering: mean-shift needs T1 > T2 > 0, got T1=%v T2=%v", opts.T1, opts.T2)
	}
	return nil
}

// mergeCanopies collapses centers that came within T2 of an earlier center.
func mergeCanopies(centers []Vector, opts MeanShiftOptions) []Vector {
	t2sq := opts.T2 * opts.T2
	var out []Vector
	for _, c := range centers {
		merged := false
		for _, kept := range out {
			if _, ok := squaredEuclideanWithin(c, kept, t2sq); ok {
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, c)
		}
	}
	return out
}

// seedCenters starts mean-shift from a decimated copy of the data (Mahout
// seeds one canopy per point; decimation keeps the simulation tractable on
// large inputs while preserving the algorithm's behaviour).
func seedCenters(vectors []Vector, maxSeeds int) []Vector {
	step := 1
	if len(vectors) > maxSeeds {
		step = (len(vectors) + maxSeeds - 1) / maxSeeds
	}
	var out []Vector
	for i := 0; i < len(vectors); i += step {
		out = append(out, vectors[i].Clone())
	}
	return out
}

// meanShiftMapper emits each data point toward every canopy within T1
// (t1sq is T1 squared), as kmeansMapper does.
type meanShiftMapper struct {
	centers []Vector
	t1sq    float64
}

func (m *meanShiftMapper) Map(_ string, value any, emit mapreduce.Emit) {
	v := Vector(value.([]float64))
	for i, c := range m.centers {
		if _, ok := squaredEuclideanWithin(v, c, m.t1sq); ok {
			emit(clusterKey(i), value, partialSize(len(v)))
		}
	}
}

// MeanShiftMR runs mean-shift as per-iteration MapReduce jobs: mappers
// compute partial means per canopy, the reducer moves each canopy, and the
// driver merges canopies that converged together.
func MeanShiftMR(p *sim.Proc, d *Driver, opts MeanShiftOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if err := validateMeanShift(opts); err != nil {
		return Result{}, err
	}
	centers := seedCenters(d.vectors, 256)
	res := Result{Algorithm: "meanshift"}
	start := p.Now()
	for iter := 0; iter < opts.MaxIter; iter++ {
		captured := centers
		out, err := d.iterate(p, &res, len(centers), d.perRecordCost(len(centers)),
			func() mapreduce.Mapper { return &meanShiftMapper{centers: captured, t1sq: opts.T1 * opts.T1} },
			kmeansReducer, kmeansCombiner)
		if err != nil {
			return res, err
		}
		moved, err := nextCenters(out, centers)
		if err != nil {
			return res, err
		}
		shift := maxShift(centers, moved)
		centers = mergeCanopies(moved, opts)
		res.History = append(res.History, centers)
		if shift <= opts.Epsilon {
			break
		}
	}
	res.Centers = centers
	res.Assignments = Assignments(d.vectors, centers)
	res.Runtime = p.Now() - start
	return res, nil
}
