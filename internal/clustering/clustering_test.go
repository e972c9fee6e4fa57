package clustering

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vhadoop/internal/datasets"
)

// threeBlobs returns well-separated 2-D clusters for recovery tests.
func threeBlobs(n int) ([]Vector, []int) {
	rng := rand.New(rand.NewSource(11))
	means := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	var pts []Vector
	var labels []int
	for ci, m := range means {
		for i := 0; i < n; i++ {
			pts = append(pts, Vector{
				m[0] + rng.NormFloat64()*0.8,
				m[1] + rng.NormFloat64()*0.8,
			})
			labels = append(labels, ci)
		}
	}
	return pts, labels
}

// purity measures how well assignments match true labels.
func purity(assign, labels []int) float64 {
	type key struct{ a, l int }
	counts := map[key]int{}
	for i := range assign {
		counts[key{assign[i], labels[i]}]++
	}
	best := map[int]int{}
	for k, n := range counts {
		if n > best[k.a] {
			best[k.a] = n
		}
	}
	var correct int
	for _, n := range best {
		correct += n
	}
	return float64(correct) / float64(len(assign))
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[2] != 9 {
		t.Fatalf("Add: %v", v)
	}
	v.Scale(2)
	if v[1] != 14 {
		t.Fatalf("Scale: %v", v)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases storage")
	}
}

func TestDistances(t *testing.T) {
	a, b := Vector{0, 0}, Vector{3, 4}
	if d := Euclidean(a, b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("euclidean = %v", d)
	}
	if d := SquaredEuclidean(a, b); math.Abs(d-25) > 1e-12 {
		t.Fatalf("squared = %v", d)
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	pts, labels := threeBlobs(60)
	initial := []Vector{pts[0].Clone(), pts[70].Clone(), pts[130].Clone()}
	res, err := KMeans(pts, initial, DefaultKMeansOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if p := purity(res.Assignments, labels); p < 0.98 {
		t.Fatalf("purity = %v", p)
	}
	if res.Iterations < 1 || res.Iterations > 10 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestKMeansObjectiveNonIncreasing(t *testing.T) {
	pts, _ := threeBlobs(50)
	initial := []Vector{pts[3].Clone(), pts[5].Clone(), pts[9].Clone()}
	res, err := KMeans(pts, initial, DefaultKMeansOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, centers := range res.History {
		assign := Assignments(pts, centers)
		wcss := WithinClusterSS(pts, centers, assign)
		if wcss > prev+1e-6 {
			t.Fatalf("objective increased: %v -> %v", prev, wcss)
		}
		prev = wcss
	}
}

func TestKMeansEmptyClusterKeepsCenter(t *testing.T) {
	pts := []Vector{{0, 0}, {0.1, 0}, {0.2, 0}}
	initial := []Vector{{0, 0}, {100, 100}} // second center sees no points
	res, err := KMeans(pts, initial, DefaultKMeansOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[1][0] != 100 {
		t.Fatalf("empty cluster center moved: %v", res.Centers[1])
	}
}

func TestFuzzyKMeansMembershipsSumToOne(t *testing.T) {
	pts, _ := threeBlobs(20)
	centers := []Vector{pts[0], pts[25], pts[45]}
	for _, v := range pts {
		u := memberships(v, centers, 2)
		var s float64
		for _, x := range u {
			s += x
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("memberships sum to %v", s)
		}
	}
}

func TestFuzzyKMeansRecoversBlobs(t *testing.T) {
	pts, labels := threeBlobs(60)
	initial := []Vector{pts[0].Clone(), pts[70].Clone(), pts[130].Clone()}
	res, err := FuzzyKMeans(pts, initial, DefaultFuzzyKMeansOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if p := purity(res.Assignments, labels); p < 0.95 {
		t.Fatalf("purity = %v", p)
	}
}

func TestFuzzyKMeansRejectsBadM(t *testing.T) {
	pts, _ := threeBlobs(5)
	opts := DefaultFuzzyKMeansOptions(2)
	opts.M = 1.0
	if _, err := FuzzyKMeans(pts, []Vector{pts[0], pts[1]}, opts); err == nil {
		t.Fatal("m=1 accepted")
	}
}

func TestCanopyCoversAllPoints(t *testing.T) {
	pts, _ := threeBlobs(60)
	opts := CanopyOptions{T1: 6, T2: 3}
	res, err := Canopy(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) < 3 {
		t.Fatalf("only %d canopies for 3 separated blobs", len(res.Centers))
	}
	for i, v := range pts {
		_, d := Nearest(v, res.Centers)
		if d >= opts.T2 {
			t.Fatalf("point %d is %v from nearest canopy (T2=%v)", i, d, opts.T2)
		}
	}
}

func TestCanopyValidation(t *testing.T) {
	pts, _ := threeBlobs(5)
	if _, err := Canopy(pts, CanopyOptions{T1: 1, T2: 2}); err == nil {
		t.Fatal("T1 < T2 accepted")
	}
	if _, err := Canopy(pts, CanopyOptions{T1: 2, T2: 0}); err == nil {
		t.Fatal("T2 = 0 accepted")
	}
}

func TestMeanShiftMergesToBlobCount(t *testing.T) {
	pts, labels := threeBlobs(60)
	res, err := MeanShift(pts, DefaultMeanShiftOptions(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) < 3 || len(res.Centers) > 6 {
		t.Fatalf("centers = %d, want near 3", len(res.Centers))
	}
	if p := purity(res.Assignments, labels); p < 0.95 {
		t.Fatalf("purity = %v", p)
	}
}

func TestDirichletWeightsFormDistribution(t *testing.T) {
	pts, _ := threeBlobs(60)
	res, err := Dirichlet(pts, DefaultDirichletOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 8 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	if res.Iterations != 10 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	for _, c := range res.Centers {
		for _, x := range c {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite center %v", c)
			}
		}
	}
	// Every point gets an assignment in range.
	for _, a := range res.Assignments {
		if a < 0 || a >= 8 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestMinHashGroupsIdenticalVectors(t *testing.T) {
	base := Vector{5, 0, 5, 0, 5, 0}
	other := Vector{0, 5, 0, 5, 0, 5}
	pts := []Vector{base.Clone(), base.Clone(), base.Clone(), other.Clone(), other.Clone()}
	res, err := MinHash(pts, DefaultMinHashOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[1] != res.Assignments[2] {
		t.Fatalf("identical vectors split: %v", res.Assignments)
	}
	if res.Assignments[3] != res.Assignments[4] {
		t.Fatalf("identical vectors split: %v", res.Assignments)
	}
	if res.Assignments[0] == res.Assignments[3] {
		t.Fatalf("disjoint feature sets merged: %v", res.Assignments)
	}
}

func TestMinHashOnControlChartSeparatesSomeStructure(t *testing.T) {
	series := datasets.ControlChart(rand.New(rand.NewSource(5)), datasets.ControlChartOptions{PerClass: 20, Length: 60})
	vecs := FromFloats(datasets.ControlVectors(series))
	res, err := MinHash(vecs, DefaultMinHashOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no minhash groups at all")
	}
}

func TestKMeansOnControlChartSeparatesTrends(t *testing.T) {
	series := datasets.ControlChart(rand.New(rand.NewSource(5)), datasets.ControlChartOptions{PerClass: 30, Length: 60})
	vecs := FromFloats(datasets.ControlVectors(series))
	labels := make([]int, len(series))
	for i, s := range series {
		labels[i] = int(s.Class)
	}
	initial := []Vector{vecs[0], vecs[30], vecs[60], vecs[90], vecs[120], vecs[150]}
	opts := DefaultKMeansOptions(6)
	opts.MaxIter = 20
	res, err := KMeans(vecs, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The six classes are not linearly separable in raw space, but k-means
	// should do far better than random (1/6).
	if p := purity(res.Assignments, labels); p < 0.4 {
		t.Fatalf("purity = %v on control chart", p)
	}
}

// Property: canopy centers are never within T2 of each other.
func TestCanopySeparationProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = Vector{rng.Float64() * 20, rng.Float64() * 20}
		}
		opts := CanopyOptions{T1: 5, T2: 2.5}
		res, err := Canopy(pts, opts)
		if err != nil {
			return false
		}
		for i := range res.Centers {
			for j := i + 1; j < len(res.Centers); j++ {
				if Euclidean(res.Centers[i], res.Centers[j]) < opts.T2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: k-means assignments always point at the nearest center.
func TestNearestAssignmentProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Vector, 30)
		for i := range pts {
			pts[i] = Vector{rng.NormFloat64(), rng.NormFloat64()}
		}
		res, err := KMeans(pts, []Vector{pts[0].Clone(), pts[1].Clone()}, DefaultKMeansOptions(2))
		if err != nil {
			return false
		}
		for i, v := range pts {
			want, _ := Nearest(v, res.Centers)
			if res.Assignments[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
