package clustering

import (
	"fmt"
	"strconv"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// reduceIndex parses the numeric part of a "c<idx>"-style reduce key
// and bounds-checks it against n cluster slots. The parse failure is
// propagated, not replaced: a malformed key is a mapper bug, and the
// strconv cause says which kind.
func reduceIndex(key string, n int) (int, error) {
	if len(key) < 2 {
		return 0, fmt.Errorf("clustering: reduce key %q has no index", key)
	}
	idx, err := strconv.Atoi(key[1:])
	if err != nil {
		return 0, fmt.Errorf("clustering: bad reduce key %q: %w", key, err)
	}
	if idx < 0 || idx >= n {
		return 0, fmt.Errorf("clustering: reduce key %q out of range [0,%d)", key, n)
	}
	return idx, nil
}

// clusterKeys holds the reduce keys "c0", "c1", … of the first 256 clusters
// (mean-shift seeds at most 256 canopies), so a mapper mints no key per
// point. It is built once at package initialisation and read-only after.
var clusterKeys = func() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "c" + strconv.Itoa(i)
	}
	return keys
}()

// clusterKey returns cluster i's reduce key, the inverse of reduceIndex.
func clusterKey(i int) string {
	if i < len(clusterKeys) {
		return clusterKeys[i]
	}
	return "c" + strconv.Itoa(i)
}

// Result is the outcome of one clustering run (in-memory or MapReduce).
type Result struct {
	Algorithm   string
	Centers     []Vector
	Assignments []int // per input vector; -1 if the algorithm does not assign
	Iterations  int
	Runtime     sim.Time // wall-clock virtual time of the MapReduce run
	JobStats    []mapreduce.JobStats
	// History keeps the centers after each iteration, oldest first — the
	// data Figure 8's convergence visualisation superimposes.
	History [][]Vector
	// Groups holds cluster membership sets for algorithms whose natural
	// output is groups rather than centroids (MinHash).
	Groups [][]int
}

// Driver runs clustering algorithms as sequences of MapReduce jobs on a
// vHadoop platform, mirroring how Mahout drives Hadoop.
type Driver struct {
	pl      *core.Platform
	name    string
	vectors []Vector

	// SubmitOpts (tenant, priority, deadline) are forwarded to every
	// MapReduce job the driver submits.
	SubmitOpts []mapreduce.SubmitOption

	iteration int
}

// NewDriver prepares a driver for the given input name. Call Load before
// running any algorithm.
func NewDriver(pl *core.Platform, name string) *Driver {
	return &Driver{pl: pl, name: name}
}

// Load uploads the vectors to HDFS as the algorithm input. The serialized
// size of a vector scales with the data dimensionality: a Mahout
// VectorWritable of the 60-dim control series is an order of magnitude
// bigger than one of a 2-D sample.
func (d *Driver) Load(p *sim.Proc, vectors []Vector) error {
	dims, err := checkDims(vectors)
	if err != nil {
		return err
	}
	bytesPerVector := 64 + 16*float64(dims)
	d.vectors = vectors
	raw := make([][]float64, len(vectors))
	for i, v := range vectors {
		raw[i] = v
	}
	recs := datasets.VectorRecords(raw, bytesPerVector)
	size := bytesPerVector * float64(len(vectors))
	_, werr := d.pl.DFS.Write(p, d.pl.Master, d.name, size, recs)
	return werr
}

// InitCenters samples k distinct input vectors as initial centers, using
// the platform's deterministic random stream.
func (d *Driver) InitCenters(k int) []Vector {
	if k > len(d.vectors) {
		k = len(d.vectors)
	}
	rng := d.pl.Engine.Rand()
	perm := rng.Perm(len(d.vectors))
	centers := make([]Vector, k)
	for i := 0; i < k; i++ {
		centers[i] = d.vectors[perm[i]].Clone()
	}
	return centers
}

// perRecordCost returns the VCPU seconds one input record costs when scored
// against nCenters centers (≈10 ns per dimension operation, the measured
// rate of tight distance loops on the testbed's cores).
func (d *Driver) perRecordCost(nCenters int) float64 {
	return float64(nCenters*len(d.vectors[0])) * 1e-7
}

// iterate runs one job of res.Algorithm and counts it as an iteration. It
// first writes the state of nClusters clusters to HDFS, which every mapper
// reads as a side input; a serialized cluster carries per-dimension
// statistics, so its size scales with the dimensionality. The job has one
// map task per worker (Mahout sizes the map count to the cluster's
// capacity), one reducer, and charges mapCost VCPU seconds per input record
// on top of the fixed reduce, sort and task-setup costs.
func (d *Driver) iterate(p *sim.Proc, res *Result, nClusters int, mapCost float64,
	newMapper func() mapreduce.Mapper, newReducer, newCombiner func() mapreduce.Reducer) ([]mapreduce.KV, error) {
	d.iteration++
	state := fmt.Sprintf("%s.%s-state-%04d", d.name, res.Algorithm, d.iteration)
	size := (8e3 + 1e3*float64(len(d.vectors[0]))) * float64(nClusters)
	if size < 1e3 {
		size = 1e3
	}
	if _, err := d.pl.DFS.Write(p, d.pl.Master, state, size, nil); err != nil {
		return nil, err
	}
	spec := mapreduce.JobSpec{
		Name:        fmt.Sprintf("%s-iter%04d", res.Algorithm, d.iteration),
		Input:       []string{d.name},
		SideInput:   []string{state},
		NumReduces:  1,
		NumMaps:     len(d.pl.Workers()),
		NewMapper:   newMapper,
		NewReducer:  newReducer,
		NewCombiner: newCombiner,
		Cost: mapreduce.CostModel{
			MapCPUPerRecord:    mapCost,
			ReduceCPUPerRecord: 5e-5,
			SortCPUPerByte:     5e-9,
			TaskSetupCPU:       1.5,
		},
	}
	h, err := d.pl.MR.Submit(p, spec, d.SubmitOpts...)
	if err != nil {
		return nil, err
	}
	stats, err := h.Wait(p)
	if err != nil {
		return nil, err
	}
	res.JobStats = append(res.JobStats, stats)
	res.Iterations++
	return h.OutputRecords(), nil
}

// cloneAll deep-copies a set of centers.
func cloneAll(centers []Vector) []Vector {
	out := make([]Vector, len(centers))
	for i, c := range centers {
		out[i] = c.Clone()
	}
	return out
}

// nextCenters places each reduce output at its key's index in a copy of
// centers; a cluster the reducer emitted nothing for keeps its center.
func nextCenters(out []mapreduce.KV, centers []Vector) ([]Vector, error) {
	next := cloneAll(centers)
	for _, kv := range out {
		idx, err := reduceIndex(kv.Key, len(next))
		if err != nil {
			return nil, err
		}
		next[idx] = kv.Value.(Vector)
	}
	return next, nil
}

// partial is the additive statistic flowing from mappers to reducers in the
// centroid-style algorithms: a weighted vector sum (plus a sum of squares
// for the model-based ones).
type partial struct {
	sum    Vector
	sumSq  Vector
	weight float64
	count  int
}

func newPartial(dim int, squares bool) *partial {
	p := &partial{sum: Zero(dim)}
	if squares {
		p.sumSq = Zero(dim)
	}
	return p
}

// scaledPartialOf is the fuzzy k-means per-point emission: a
// single-observation partial with membership weight w applied.
func scaledPartialOf(v Vector, w float64) *partial {
	sum := make(Vector, len(v))
	for i, x := range v {
		sum[i] = w * x
	}
	return &partial{sum: sum, weight: w, count: 1}
}

func (a *partial) add(b *partial) {
	a.sum.Add(b.sum)
	if a.sumSq != nil && b.sumSq != nil {
		a.sumSq.Add(b.sumSq)
	}
	a.weight += b.weight
	a.count += b.count
}

// partialSize is the virtual size of a serialized partial.
func partialSize(dim int) float64 { return float64(dim)*8 + 32 }

// sumPartials folds all partials for a key into one. A []float64 value is
// one point, which the k-means and mean-shift mappers emit as is: it folds
// as a partial of count 1, by the same arithmetic in the same order.
func sumPartials(values []any) *partial {
	var acc *partial
	for _, v := range values {
		if point, ok := v.([]float64); ok {
			if acc == nil {
				acc = &partial{sum: Vector(point).Clone(), count: 1}
			} else {
				acc.sum.Add(point)
				acc.count++
			}
			continue
		}
		pv := v.(*partial)
		if acc == nil {
			c := &partial{sum: pv.sum.Clone(), weight: pv.weight, count: pv.count}
			if pv.sumSq != nil {
				c.sumSq = pv.sumSq.Clone()
			}
			acc = c
			continue
		}
		acc.add(pv)
	}
	return acc
}

// maxShift returns the largest Euclidean distance between corresponding old
// and new centers (the convergence criterion).
func maxShift(old, new []Vector) float64 {
	shift := 0.0
	n := len(old)
	if len(new) < n {
		n = len(new)
	}
	for i := 0; i < n; i++ {
		if d := Euclidean(old[i], new[i]); d > shift {
			shift = d
		}
	}
	return shift
}
