package clustering

// In-memory reference implementations of five of the library's algorithms
// (KMeans, which the benchmark also runs, stays in kmeans.go). They compute
// on plain vectors with the same helpers as the MapReduce drivers, so the
// MR-versus-reference tests can demand equal results; no production path
// calls them.

import "fmt"

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

// memberships is membershipsInto with fresh result slices.
func memberships(v Vector, centers []Vector, m float64) []float64 {
	return membershipsInto(v, centers, m, nil, nil)
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

// meanShiftMove computes the shifted position of each center: the mean of
// all data points within T1 (a center with no points in range stays put).
func meanShiftMove(vectors, centers []Vector, opts MeanShiftOptions) []Vector {
	dim := len(vectors[0])
	acc := make([]*partial, len(centers))
	for i := range acc {
		acc[i] = newPartial(dim, false)
	}
	t1sq := opts.T1 * opts.T1
	for _, v := range vectors {
		for i, c := range centers {
			if _, ok := squaredEuclideanWithin(v, c, t1sq); ok {
				acc[i].sum.Add(v)
				acc[i].count++
			}
		}
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

// MeanShift is the in-memory reference implementation.
func MeanShift(vectors []Vector, opts MeanShiftOptions) (Result, error) {
	if _, err := checkDims(vectors); err != nil {
		return Result{}, err
	}
	if err := validateMeanShift(opts); err != nil {
		return Result{}, err
	}
	centers := seedCenters(vectors, 256)
	res := Result{Algorithm: "meanshift"}
	for iter := 0; iter < opts.MaxIter; iter++ {
		moved := meanShiftMove(vectors, centers, opts)
		shift := maxShift(centers, moved)
		centers = mergeCanopies(moved, opts)
		res.Iterations++
		res.History = append(res.History, centers)
		if shift <= opts.Epsilon {
			break
		}
	}
	res.Centers = centers
	res.Assignments = Assignments(vectors, centers)
	return res, nil
}

// minhashGroups collects, per band key, the IDs of the vectors that hash
// there; groups of at least MinCluster survive.
func minhashGroups(vectors []Vector, opts MinHashOptions) map[string][]int {
	groups := make(map[string][]int)
	for i, v := range vectors {
		for _, k := range minhashKeys(v, opts) {
			groups[k] = append(groups[k], i)
		}
	}
	for k, g := range groups {
		if len(g) < opts.MinCluster {
			delete(groups, k)
		}
	}
	return groups
}

// MinHash is the in-memory reference implementation.
func MinHash(vectors []Vector, opts MinHashOptions) (Result, error) {
	if _, err := checkDims(vectors); err != nil {
		return Result{}, err
	}
	if opts.NumHashes < opts.KeyGroups || opts.KeyGroups < 1 {
		return Result{}, fmt.Errorf("clustering: minhash needs NumHashes >= KeyGroups >= 1")
	}
	opts.medians = dimensionMedians(vectors)
	groups := minhashGroups(vectors, opts)
	clusters, assignments := unionGroups(len(vectors), groups)
	res := Result{Algorithm: "minhash", Iterations: 1, Groups: clusters, Assignments: assignments}
	for _, members := range clusters {
		pts := make([]Vector, len(members))
		for i, id := range members {
			pts[i] = vectors[id]
		}
		res.Centers = append(res.Centers, Mean(pts))
	}
	res.History = [][]Vector{res.Centers}
	return res, nil
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
