package clustering

import (
	"fmt"
	"math"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// CanopyOptions configures canopy clustering (Mahout's CanopyDriver): T1 is
// the loose distance (points within it join the canopy), T2 the tight one
// (points within it are removed from further canopy creation). T1 > T2.
type CanopyOptions struct {
	T1, T2 float64
}

// canopySet accumulates canopy centers: absorb adds a point as a new center
// unless it lies within T2 of an existing one. It caches each center's norm
// and rejects most point/center pairs on the norm gap alone (see normMargin
// for why the prune is exact) before falling back to the bounded
// squared-distance kernel.
type canopySet struct {
	t2sq    float64
	centers []Vector
	norms   []float64
}

func (s *canopySet) absorb(pt Vector) {
	sv := sqNorm(pt)
	nv := math.Sqrt(sv)
	for i, c := range s.centers {
		nc := s.norms[i]
		diff := nv - nc
		if lb := diff * diff; lb >= s.t2sq+normMargin*(sv+nc*nc) {
			continue // provably not within T2
		}
		if _, ok := squaredEuclideanWithin(pt, c, s.t2sq); ok {
			return
		}
	}
	s.centers = append(s.centers, pt.Clone())
	s.norms = append(s.norms, nv)
}

// canopyCluster runs the sequential canopy pass over points: the exact
// routine used by the reference implementation, by each mapper on its split,
// and by the reducer on the mapper-produced centers.
func canopyCluster(points []Vector, opts CanopyOptions) []Vector {
	s := &canopySet{t2sq: opts.T2 * opts.T2}
	for _, pt := range points {
		s.absorb(pt)
	}
	return s.centers
}

// Canopy is the in-memory reference implementation: one pass creates the
// canopies, a second assigns each point to its nearest canopy center.
func Canopy(vectors []Vector, opts CanopyOptions) (Result, error) {
	if _, err := checkDims(vectors); err != nil {
		return Result{}, err
	}
	if err := validateCanopy(opts); err != nil {
		return Result{}, err
	}
	centers := canopyCluster(vectors, opts)
	return Result{
		Algorithm:   "canopy",
		Centers:     centers,
		Assignments: Assignments(vectors, centers),
		Iterations:  1,
		History:     [][]Vector{centers},
	}, nil
}

func validateCanopy(opts CanopyOptions) error {
	if opts.T1 <= opts.T2 || opts.T2 <= 0 {
		return fmt.Errorf("clustering: canopy needs T1 > T2 > 0, got T1=%v T2=%v", opts.T1, opts.T2)
	}
	return nil
}

// canopyMapper builds canopies over its split and emits their centers when
// the split ends (Hadoop's cleanup hook).
type canopyMapper struct{ canopySet }

func (m *canopyMapper) Map(_ string, value any, _ mapreduce.Emit) {
	m.absorb(Vector(value.([]float64)))
}

func (m *canopyMapper) Close(emit mapreduce.Emit) {
	for _, c := range m.centers {
		emit("centroid", c, float64(len(c)*8+16))
	}
}

// CanopyMR runs canopy generation as a single MapReduce job, Mahout-style:
// each mapper canopies its split, the single reducer re-canopies the mapper
// centers into the final set.
func CanopyMR(p *sim.Proc, d *Driver, opts CanopyOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if err := validateCanopy(opts); err != nil {
		return Result{}, err
	}
	res := Result{Algorithm: "canopy"}
	start := p.Now()
	out, err := d.iterate(p, &res, 1, d.perRecordCost(48), // typical live canopy count
		func() mapreduce.Mapper { return &canopyMapper{canopySet{t2sq: opts.T2 * opts.T2}} },
		func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				pts := make([]Vector, len(values))
				for i, v := range values {
					pts[i] = v.(Vector)
				}
				for _, c := range canopyCluster(pts, opts) {
					emit("canopy", c, float64(len(c)*8+16))
				}
			})
		},
		nil)
	if err != nil {
		return res, err
	}
	for _, kv := range out {
		res.Centers = append(res.Centers, kv.Value.(Vector))
	}
	if len(res.Centers) == 0 {
		return res, fmt.Errorf("clustering: canopy produced no centers")
	}
	res.History = [][]Vector{res.Centers}
	res.Assignments = Assignments(d.vectors, res.Centers)
	res.Runtime = p.Now() - start
	return res, nil
}
