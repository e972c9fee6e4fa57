package clustering

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// MinHashOptions configures MinHash clustering (Mahout's MinHashDriver):
// probabilistic grouping of similar items by locality-sensitive hashing of
// their feature sets.
type MinHashOptions struct {
	NumHashes  int // total hash functions
	KeyGroups  int // hashes concatenated into one band key (Mahout default 2)
	MinCluster int // groups smaller than this are dropped (Mahout default 2)
	// Binarize turns a dense vector into a feature set: the dimensions
	// whose value exceeds the per-dimension dataset median.
	medians Vector
}

// DefaultMinHashOptions mirrors Mahout 0.6 defaults.
func DefaultMinHashOptions() MinHashOptions {
	return MinHashOptions{NumHashes: 10, KeyGroups: 2, MinCluster: 2}
}

// dimensionMedians computes the per-dimension median used to binarize dense
// vectors into feature sets.
func dimensionMedians(vectors []Vector) Vector {
	dim := len(vectors[0])
	med := Zero(dim)
	col := make([]float64, len(vectors))
	for j := 0; j < dim; j++ {
		for i, v := range vectors {
			col[i] = v[j]
		}
		sort.Float64s(col)
		med[j] = col[len(col)/2]
	}
	return med
}

// features returns the feature set of v: indices above the dataset median.
func features(v, medians Vector) []int {
	var out []int
	for j := range v {
		if v[j] > medians[j] {
			out = append(out, j)
		}
	}
	return out
}

// minhashKeys computes the band keys for one vector: NumHashes universal
// hashes over the feature set, min-folded, concatenated KeyGroups at a time.
func minhashKeys(v Vector, opts MinHashOptions) []string {
	fs := features(v, opts.medians)
	if len(fs) == 0 {
		fs = []int{0}
	}
	const prime = 2147483647
	mins := make([]uint64, opts.NumHashes)
	for h := 0; h < opts.NumHashes; h++ {
		a := uint64(2*h + 1)
		b := uint64(104729 * (h + 1))
		min := uint64(1<<63 - 1)
		for _, f := range fs {
			x := (a*uint64(f+1) + b) % prime
			if x < min {
				min = x
			}
		}
		mins[h] = min
	}
	var keys []string
	for h := 0; h+opts.KeyGroups <= opts.NumHashes; h += opts.KeyGroups {
		var sb strings.Builder
		for g := 0; g < opts.KeyGroups; g++ {
			if g > 0 {
				sb.WriteByte('-')
			}
			sb.WriteString(strconv.FormatUint(mins[h+g], 36))
		}
		keys = append(keys, sb.String())
	}
	return keys
}

// unionGroups merges overlapping groups into disjoint clusters (union-find)
// and produces per-vector assignments (-1 for unclustered points).
func unionGroups(n int, groups map[string][]int) ([][]int, []int) {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	clustered := make([]bool, n)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic merge order
	for _, k := range keys {
		g := groups[k]
		for _, id := range g {
			clustered[id] = true
			ra, rb := find(g[0]), find(id)
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		if clustered[i] {
			r := find(i)
			byRoot[r] = append(byRoot[r], i)
		}
	}
	// Canonical order: members ascending within a cluster, clusters by
	// smallest member — independent of union order, so the MapReduce run
	// and the reference produce identical numbering. Build from sorted
	// roots, not map-visit order: a total sort of the keys makes the
	// construction deterministic by inspection rather than argued from
	// the comparator never tying.
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	clusters := make([][]int, 0, len(roots))
	for _, r := range roots {
		members := byRoot[r]
		sort.Ints(members)
		clusters = append(clusters, members)
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	assignments := make([]int, n)
	for i := range assignments {
		assignments[i] = -1
	}
	for ci, members := range clusters {
		for _, id := range members {
			assignments[id] = ci
		}
	}
	return clusters, assignments
}

// minhashMapper emits (bandKey, vectorID) pairs.
type minhashMapper struct{ opts MinHashOptions }

func (m *minhashMapper) Map(key string, value any, emit mapreduce.Emit) {
	v := Vector(value.([]float64))
	for _, k := range minhashKeys(v, m.opts) {
		emit(k, key, float64(len(k)+len(key)+8))
	}
}

// MinHashMR runs MinHash clustering as one MapReduce job: mappers hash their
// vectors into band keys, reducers collect each band's member list, and the
// driver unions overlapping bands into final clusters.
func MinHashMR(p *sim.Proc, d *Driver, opts MinHashOptions) (Result, error) {
	if len(d.vectors) == 0 {
		return Result{}, fmt.Errorf("clustering: driver has no loaded vectors")
	}
	if opts.NumHashes < opts.KeyGroups || opts.KeyGroups < 1 {
		return Result{}, fmt.Errorf("clustering: minhash needs NumHashes >= KeyGroups >= 1")
	}
	opts.medians = dimensionMedians(d.vectors)
	res := Result{Algorithm: "minhash"}
	start := p.Now()
	minCluster := opts.MinCluster
	out, err := d.iterate(p, &res, 1, d.perRecordCost(opts.NumHashes),
		func() mapreduce.Mapper { return &minhashMapper{opts: opts} },
		func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				if len(values) < minCluster {
					return
				}
				ids := make([]int, len(values))
				for i, v := range values {
					id, err := strconv.Atoi(strings.TrimPrefix(v.(string), "v"))
					if err != nil {
						// A malformed id is a mapper bug. Skipping the value
						// would silently leave a spurious vector 0 in the
						// cluster; fail the simulated process loudly instead.
						panic(fmt.Sprintf("clustering: minhash reducer: malformed vector id %v: %v", v, err))
					}
					ids[i] = id
				}
				emit(key, ids, float64(8*len(ids)))
			})
		},
		nil)
	if err != nil {
		return res, err
	}

	groups := make(map[string][]int, len(out))
	for _, kv := range out {
		groups[kv.Key] = kv.Value.([]int)
	}
	clusters, assignments := unionGroups(len(d.vectors), groups)
	res.Groups = clusters
	res.Assignments = assignments
	for _, members := range clusters {
		pts := make([]Vector, len(members))
		for i, id := range members {
			pts[i] = d.vectors[id]
		}
		res.Centers = append(res.Centers, Mean(pts))
	}
	res.History = [][]Vector{res.Centers}
	res.Runtime = p.Now() - start
	return res, nil
}
