// Package clustering is the Machine Learning Algorithm Library of the
// vHadoop platform: the six MapReduce-based parallel clustering algorithms
// the paper evaluates — Canopy, k-means, Fuzzy k-means, MeanShift, Dirichlet
// process clustering and MinHash — in Mahout 0.6's formulations.
//
// Every algorithm comes in two forms that compute the same result:
//
//   - an in-memory reference implementation (used for correctness tests and
//     fast local experimentation), and
//   - a MapReduce driver that runs the iterations as real jobs on a vHadoop
//     platform, with real vectors flowing through map, combine, shuffle and
//     reduce while virtual time advances through the simulated cluster.
package clustering

import (
	"fmt"
	"math"
)

// Vector is a dense feature vector.
type Vector []float64

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add accumulates w into v (in place). The kernel is 4-way unrolled with the
// bounds checks hoisted; per-element arithmetic is unchanged, so results are
// bit-identical to the plain loop.
func (v Vector) Add(w Vector) {
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += w[i]
		v[i+1] += w[i+1]
		v[i+2] += w[i+2]
		v[i+3] += w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += w[i]
	}
}

// AddScaled accumulates s*w into v (in place); unrolled like Add.
func (v Vector) AddScaled(w Vector, s float64) {
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += s * w[i]
		v[i+1] += s * w[i+1]
		v[i+2] += s * w[i+2]
		v[i+3] += s * w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += s * w[i]
	}
}

// Scale multiplies v by s (in place).
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Zero returns a zero vector of dimension d.
func Zero(d int) Vector { return make(Vector, d) }

// Euclidean is the L2 distance.
func Euclidean(a, b Vector) float64 { return math.Sqrt(SquaredEuclidean(a, b)) }

// SquaredEuclidean is the squared L2 distance (cheaper; order-preserving).
// The loop runs 4 independent accumulators with bounds checks hoisted —
// these kernels execute points x centers x iterations times, so they are
// the clustering library's hottest code.
func SquaredEuclidean(a, b Vector) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Mean returns the centroid of vectors (which must be non-empty).
func Mean(vectors []Vector) Vector {
	if len(vectors) == 0 {
		panic("clustering: mean of no vectors")
	}
	m := Zero(len(vectors[0]))
	for _, v := range vectors {
		m.Add(v)
	}
	m.Scale(1 / float64(len(vectors)))
	return m
}

// Nearest returns the index of the center closest to v and the Euclidean
// distance to it: the NearestSquared scan with a single square root at the
// end.
func Nearest(v Vector, centers []Vector) (int, float64) {
	best, d2 := NearestSquared(v, centers)
	return best, math.Sqrt(d2)
}

// NearestSquared returns the index of the center closest to v in L2 and the
// squared distance — the kernel the k-means, fuzzy k-means, canopy and
// mean-shift mappers lean on. Each candidate is scanned with the current
// best as an early-exit bound, which prunes most of the work once a close
// center is found while returning exactly the distances and index the full
// scan would.
func NearestSquared(v Vector, centers []Vector) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, c := range centers {
		if d, ok := squaredEuclideanWithin(v, c, bestD); ok {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// squaredEuclideanWithin computes SquaredEuclidean(a, b), abandoning the
// scan once the partial sum reaches bound. ok reports whether the full
// distance is strictly below bound, in which case d is the exact distance.
// Because squares are non-negative the partial sum is monotone, so the
// early exit never changes a comparison's outcome — only skips arithmetic
// whose result is already decided.
func squaredEuclideanWithin(a, b Vector, bound float64) (d float64, ok bool) {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	// The bound check runs once per 16 elements: checking every unrolled
	// block would serialize the four accumulator chains and cost more than
	// the pruning saves.
	for ; i+16 <= len(a); i += 16 {
		for j := i; j < i+16; j += 4 {
			d0 := a[j] - b[j]
			d1 := a[j+1] - b[j+1]
			d2 := a[j+2] - b[j+2]
			d3 := a[j+3] - b[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if (s0+s1)+(s2+s3) >= bound {
			return 0, false
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		dd := a[i] - b[i]
		s0 += dd * dd
	}
	d = (s0 + s1) + (s2 + s3)
	return d, d < bound
}

// sqNorm returns v·v, unrolled like SquaredEuclidean.
func sqNorm(v Vector) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * v[i]
		s1 += v[i+1] * v[i+1]
		s2 += v[i+2] * v[i+2]
		s3 += v[i+3] * v[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * v[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// centerNorms returns the L2 norm of each center, the precomputed side of
// the norm-bound prefilter below.
func centerNorms(centers []Vector) []float64 {
	norms := make([]float64, len(centers))
	for i, c := range centers {
		norms[i] = math.Sqrt(sqNorm(c))
	}
	return norms
}

// normMargin is the safety margin of the norm-bound prefilter. The triangle
// inequality gives (‖v‖−‖c‖)² ≤ ‖v−c‖² exactly over the reals, but both
// sides here are computed in floating point. The computed lower bound is off
// by at most ~42u·(‖v‖²+‖c‖²) (norms carry ≤ ~10u relative error each, the
// subtract and square another few u), and the kernel's computed distance by
// ~(dim+2)u relative — and a prune can only fire when the comparison bound
// is below 2(‖v‖²+‖c‖²), which folds the relative term into the same scale.
// A 1e-13 multiplier therefore exceeds the worst-case combined error by
// >20x: a center is skipped only when its computed distance provably could
// not have won, so pruned and unpruned scans return bit-identical results.
const normMargin = 1e-13

// nearestSquaredPruned is NearestSquared with a norm prefilter: nv and sv
// are ‖v‖ and v·v, norms[i] is ‖centers[i]‖. Centers whose norm gap already
// reaches the current best (plus normMargin slack) are skipped without
// touching their coordinates; the rest go through the same bounded kernel
// with the same evolving bound, so the result is bit-identical to the plain
// scan.
func nearestSquaredPruned(v Vector, nv, sv float64, centers []Vector, norms []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, c := range centers {
		nc := norms[i]
		diff := nv - nc
		if lb := diff * diff; lb >= bestD+normMargin*(sv+nc*nc) {
			continue
		}
		if d, ok := squaredEuclideanWithin(v, c, bestD); ok {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// FromFloats converts raw slices to Vectors (sharing storage).
func FromFloats(raw [][]float64) []Vector {
	out := make([]Vector, len(raw))
	for i, r := range raw {
		out[i] = Vector(r)
	}
	return out
}

// Assignments labels each vector with its nearest center. It precomputes
// center norms once and prunes by norm gap before touching coordinates —
// the dominant cost of the clustering drivers' final assignment pass.
func Assignments(vectors, centers []Vector) []int {
	out := make([]int, len(vectors))
	norms := centerNorms(centers)
	for i, v := range vectors {
		sv := sqNorm(v)
		out[i], _ = nearestSquaredPruned(v, math.Sqrt(sv), sv, centers, norms)
	}
	return out
}

// WithinClusterSS is the total squared distance of vectors to their assigned
// centers: k-means' objective function.
func WithinClusterSS(vectors, centers []Vector, assign []int) float64 {
	var s float64
	for i, v := range vectors {
		s += SquaredEuclidean(v, centers[assign[i]])
	}
	return s
}

func checkDims(vectors []Vector) (int, error) {
	if len(vectors) == 0 {
		return 0, fmt.Errorf("clustering: no input vectors")
	}
	d := len(vectors[0])
	for i, v := range vectors {
		if len(v) != d {
			return 0, fmt.Errorf("clustering: vector %d has dim %d, want %d", i, len(v), d)
		}
	}
	return d, nil
}

// checkCenters rejects initial centers the iterative algorithms cannot
// start from: none at all, or any whose dimension differs from the data's.
func checkCenters(centers []Vector, dim int) error {
	if len(centers) == 0 {
		return fmt.Errorf("clustering: no initial centers")
	}
	for i, c := range centers {
		if len(c) != dim {
			return fmt.Errorf("clustering: center %d has dim %d, want %d", i, len(c), dim)
		}
	}
	return nil
}
