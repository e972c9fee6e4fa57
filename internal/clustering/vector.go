// Package clustering is the Machine Learning Algorithm Library of the
// vHadoop platform: the six MapReduce-based parallel clustering algorithms
// the paper evaluates — Canopy, k-means, Fuzzy k-means, MeanShift, Dirichlet
// process clustering and MinHash — in Mahout 0.6's formulations.
//
// Each algorithm is a MapReduce driver that runs its iterations as real jobs
// on a vHadoop platform, with real vectors flowing through map, combine,
// shuffle and reduce while virtual time advances through the simulated
// cluster. KMeans is also an in-memory reference, which the benchmark's
// local k-means runs; the other five in-memory references are test oracles
// and live in the package's test files.
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
// squared distance — the kernel of the k-means mapper, kmeansStep and
// Assignments. Each candidate is scanned with the current best as an
// early-exit bound, which prunes most of the work once a close center is
// found while returning exactly the distances and index the full scan would.
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

// FromFloats converts raw slices to Vectors (sharing storage).
func FromFloats(raw [][]float64) []Vector {
	out := make([]Vector, len(raw))
	for i, r := range raw {
		out[i] = Vector(r)
	}
	return out
}

// Assignments labels each vector with its nearest center.
func Assignments(vectors, centers []Vector) []int {
	out := make([]int, len(vectors))
	for i, v := range vectors {
		out[i], _ = NearestSquared(v, centers)
	}
	return out
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
