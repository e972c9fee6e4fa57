package clustering

import (
	"math"
	"math/rand"
	"testing"

	"vhadoop/internal/mapreduce"
)

// Reference (pre-unroll) kernel implementations: the unrolled versions must
// match them to tight tolerance on arbitrary dimensions, and beat them in
// the benchmarks below.

func refSquaredEuclidean(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randVec(rng *rand.Rand, d int) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func TestUnrolledKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 15, 60, 129} {
		a, b := randVec(rng, d), randVec(rng, d)
		if got, want := SquaredEuclidean(a, b), refSquaredEuclidean(a, b); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("dim %d: SquaredEuclidean = %v, ref %v", d, got, want)
		}
		// Add/AddScaled are per-element: must be bit-identical.
		va, vb := a.Clone(), a.Clone()
		va.Add(b)
		for i := range vb {
			vb[i] += b[i]
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("dim %d: Add[%d] = %v, want %v", d, i, va[i], vb[i])
			}
		}
		va, vb = a.Clone(), a.Clone()
		va.AddScaled(b, 0.37)
		for i := range vb {
			vb[i] += 0.37 * b[i]
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("dim %d: AddScaled[%d] = %v, want %v", d, i, va[i], vb[i])
			}
		}
	}
}

func TestNearestSquaredMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(70)
		k := 1 + rng.Intn(30)
		v := randVec(rng, dim)
		centers := make([]Vector, k)
		for i := range centers {
			centers[i] = randVec(rng, dim)
		}
		gotI, gotD := NearestSquared(v, centers)
		wantI, wantD := -1, math.Inf(1)
		for i, c := range centers {
			if d := refSquaredEuclidean(v, c); d < wantD {
				wantI, wantD = i, d
			}
		}
		if gotI != wantI {
			t.Fatalf("trial %d: NearestSquared index %d, want %d", trial, gotI, wantI)
		}
		if got := SquaredEuclidean(v, centers[gotI]); gotD != got {
			t.Fatalf("trial %d: NearestSquared distance %v not exact (%v)", trial, gotD, got)
		}
	}
}

func TestSquaredEuclideanWithinPrunes(t *testing.T) {
	a := Vector{0, 0, 0, 0, 0, 0, 0, 0}
	b := Vector{10, 10, 10, 10, 10, 10, 10, 10}
	if _, ok := squaredEuclideanWithin(a, b, 50); ok {
		t.Fatal("distance 800 reported within bound 50")
	}
	d, ok := squaredEuclideanWithin(a, b, 1e9)
	if !ok || d != SquaredEuclidean(a, b) {
		t.Fatalf("within large bound: d=%v ok=%v", d, ok)
	}
	// Equality to the bound is "not within" (strict <), matching d < bestD.
	if _, ok := squaredEuclideanWithin(Vector{0}, Vector{2}, 4); ok {
		t.Fatal("d == bound must not report within")
	}
}

// TestKernelsZeroAllocs gates the distance kernels the clustering mappers
// run points × centers × iterations times: none may allocate. Dimension 61
// reaches every unrolled block and the scalar tail of each kernel.
func TestKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	v := randVec(rng, 61)
	centers := make([]Vector, 16)
	for i := range centers {
		centers[i] = randVec(rng, 61)
	}
	norms := centerNorms(centers)
	sv := sqNorm(v)
	nv := math.Sqrt(sv)
	var sink float64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"SquaredEuclidean", func() { sink += SquaredEuclidean(v, centers[0]) }},
		{"squaredEuclideanWithin", func() { d, _ := squaredEuclideanWithin(v, centers[0], math.Inf(1)); sink += d }},
		{"sqNorm", func() { sink += sqNorm(v) }},
		{"nearestSquaredPruned", func() { _, d := nearestSquaredPruned(v, nv, sv, centers, norms); sink += d }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
	if sink == 0 {
		t.Fatal("kernels returned only zeros")
	}
}

// TestMappersZeroAllocs gates the k-means and mean-shift mappers, which run
// once per point per iteration: each emits the input point itself under a
// key from the shared table, so a Map call allocates nothing.
func TestMappersZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	centers := make([]Vector, 16)
	for i := range centers {
		centers[i] = randVec(rng, 61)
	}
	var point any = []float64(randVec(rng, 61))
	emitted := 0
	discard := func(string, any, float64) { emitted++ }
	for _, tc := range []struct {
		name string
		m    mapreduce.Mapper
	}{
		{"kmeansMapper", &kmeansMapper{centers: centers}},
		{"meanShiftMapper", &meanShiftMapper{centers: centers, t1sq: math.Inf(1)}},
	} {
		if n := testing.AllocsPerRun(100, func() { tc.m.Map("p", point, discard) }); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
	if emitted == 0 {
		t.Fatal("mappers emitted nothing")
	}
}

// prunedNearest is the test-side wrapper computing the per-point inputs the
// way the production call sites do.
func prunedNearest(v Vector, centers []Vector, norms []float64) (int, float64) {
	sv := sqNorm(v)
	return nearestSquaredPruned(v, math.Sqrt(sv), sv, centers, norms)
}

func TestNearestSquaredPrunedMatchesPlainScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(70)
		k := 1 + rng.Intn(40)
		v := randVec(rng, dim)
		centers := make([]Vector, k)
		for i := range centers {
			centers[i] = randVec(rng, dim)
		}
		norms := centerNorms(centers)
		wi, wd := NearestSquared(v, centers)
		gi, gd := prunedNearest(v, centers, norms)
		if gi != wi || gd != wd {
			t.Fatalf("trial %d: pruned (%d, %v), plain (%d, %v)", trial, gi, gd, wi, wd)
		}
	}
}

func TestNearestSquaredPrunedAdversarial(t *testing.T) {
	check := func(name string, v Vector, centers []Vector) {
		t.Helper()
		norms := centerNorms(centers)
		wi, wd := NearestSquared(v, centers)
		gi, gd := prunedNearest(v, centers, norms)
		if gi != wi || gd != wd {
			t.Fatalf("%s: pruned (%d, %v), plain (%d, %v)", name, gi, gd, wi, wd)
		}
	}
	// Exact duplicate centers: the tie must resolve to the lower index.
	c := Vector{1, 2, 3, 4, 5}
	check("duplicate-centers", Vector{1.1, 2.1, 2.9, 4.2, 5.3},
		[]Vector{c.Clone(), c.Clone(), {9, 9, 9, 9, 9}})
	// Equidistant centers on a shared shell around the query point.
	check("equidistant", Vector{0, 0},
		[]Vector{{3, 4}, {4, 3}, {-3, 4}, {5, 0}})
	// Far from the origin with tightly packed centers: the norm subtraction
	// cancels catastrophically, the margin must absorb it.
	base := make(Vector, 60)
	for i := range base {
		base[i] = 1e6
	}
	near1, near2, origin := base.Clone(), base.Clone(), make(Vector, 60)
	near1[0] += 1e-4
	near2[1] -= 2e-4
	check("cancellation", base, []Vector{near1, near2, origin})
	// Query coincides with a center (bestD becomes 0).
	check("zero-distance", base.Clone(), []Vector{near1, base.Clone(), near2})
}

func TestNearestEuclideanFastPathAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(70)
		v := randVec(rng, dim)
		centers := make([]Vector, 1+rng.Intn(30))
		for i := range centers {
			centers[i] = randVec(rng, dim)
		}
		gotI, gotD := Nearest(v, centers)
		wantI, wantD := -1, math.Inf(1)
		for i, c := range centers {
			if d := math.Sqrt(refSquaredEuclidean(v, c)); d < wantD {
				wantI, wantD = i, d
			}
		}
		if gotI != wantI {
			t.Fatalf("trial %d: Nearest index %d, full scan %d", trial, gotI, wantI)
		}
		if math.Abs(gotD-wantD) > 1e-9*(1+wantD) {
			t.Fatalf("trial %d: Nearest distance %v, full scan %v", trial, gotD, wantD)
		}
	}
}

// --- Micro-benchmarks ------------------------------------------------------

func benchVecs(d int) (Vector, Vector) {
	rng := rand.New(rand.NewSource(42))
	return randVec(rng, d), randVec(rng, d)
}

func BenchmarkSquaredEuclidean60(b *testing.B) {
	x, y := benchVecs(60)
	b.Run("unrolled", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += SquaredEuclidean(x, y)
		}
		_ = s
	})
	b.Run("reference", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += refSquaredEuclidean(x, y)
		}
		_ = s
	})
}

func BenchmarkNearestSquared(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	v := randVec(rng, 60)
	centers := make([]Vector, 48)
	for i := range centers {
		centers[i] = randVec(rng, 60)
	}
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NearestSquared(v, centers)
		}
	})
	b.Run("fullscan-sqrt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best, bestD := -1, math.Inf(1)
			for j, c := range centers {
				if d := math.Sqrt(refSquaredEuclidean(v, c)); d < bestD {
					best, bestD = j, d
				}
			}
			_ = best
		}
	})
}
