package clustering

import (
	"math"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/sim"
)

// mrDriver provisions a small platform and loads the vectors.
func mrDriver(t *testing.T, nodes int, vectors []Vector) (*core.Platform, *Driver) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Nodes = nodes
	pl := core.MustNewPlatform(opts)
	d := NewDriver(pl, "/ml/input")
	return pl, d
}

func gaussPoints(n int) []Vector {
	pts, _ := datasets.DisplayClusteringSample(sim.New(42).Rand())
	return FromFloats(pts[:n])
}

func TestKMeansMRMatchesReference(t *testing.T) {
	pts, _ := threeBlobs(40)
	pl, d := mrDriver(t, 6, pts)
	initial := []Vector{pts[0].Clone(), pts[50].Clone(), pts[90].Clone()}
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = KMeansMR(p, d, initial, DefaultKMeansOptions(3))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := KMeans(pts, initial, DefaultKMeansOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Iterations != ref.Iterations {
		t.Fatalf("iterations: mr=%d ref=%d", mr.Iterations, ref.Iterations)
	}
	for i := range ref.Centers {
		if d := Euclidean(mr.Centers[i], ref.Centers[i]); d > 1e-6 {
			t.Fatalf("center %d differs by %v: mr=%v ref=%v", i, d, mr.Centers[i], ref.Centers[i])
		}
	}
	for i := range ref.Assignments {
		if mr.Assignments[i] != ref.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if mr.Runtime <= 0 {
		t.Fatal("no virtual runtime recorded")
	}
	if len(mr.JobStats) != mr.Iterations {
		t.Fatalf("job stats = %d for %d iterations", len(mr.JobStats), mr.Iterations)
	}
}

func TestFuzzyKMeansMRMatchesReference(t *testing.T) {
	pts, _ := threeBlobs(30)
	pl, d := mrDriver(t, 6, pts)
	initial := []Vector{pts[0].Clone(), pts[40].Clone(), pts[70].Clone()}
	opts := DefaultFuzzyKMeansOptions(3)
	opts.MaxIter = 5
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = FuzzyKMeansMR(p, d, initial, opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FuzzyKMeans(pts, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Centers {
		if dd := Euclidean(mr.Centers[i], ref.Centers[i]); dd > 1e-6 {
			t.Fatalf("center %d differs by %v", i, dd)
		}
	}
}

func TestCanopyMRCoversPoints(t *testing.T) {
	pts, _ := threeBlobs(40)
	pl, d := mrDriver(t, 6, pts)
	opts := CanopyOptions{T1: 6, T2: 3}
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = CanopyMR(p, d, opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Centers) < 3 {
		t.Fatalf("canopies = %d for 3 blobs", len(mr.Centers))
	}
	// Two-level canopying bounds every point within T2 (mapper) + T2
	// (reducer merge) of a final center.
	for i, v := range pts {
		if _, dd := Nearest(v, mr.Centers); dd > 2*opts.T2 {
			t.Fatalf("point %d is %v from nearest canopy", i, dd)
		}
	}
}

func TestMeanShiftMRConvergesOnBlobs(t *testing.T) {
	pts, labels := threeBlobs(40)
	pl, d := mrDriver(t, 6, pts)
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = MeanShiftMR(p, d, DefaultMeanShiftOptions(4, 2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Centers) < 3 || len(mr.Centers) > 6 {
		t.Fatalf("centers = %d", len(mr.Centers))
	}
	if p := purity(mr.Assignments, labels); p < 0.9 {
		t.Fatalf("purity = %v", p)
	}
}

func TestDirichletMRMatchesReference(t *testing.T) {
	pts := gaussPoints(120)
	pl, d := mrDriver(t, 6, pts)
	opts := DefaultDirichletOptions(6)
	opts.MaxIter = 5
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = DirichletMR(p, d, opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Dirichlet(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same hash-seeded assignments and same arithmetic shape: centers agree
	// closely (reduce-order float drift allowed).
	for i := range ref.Centers {
		if dd := Euclidean(mr.Centers[i], ref.Centers[i]); dd > 1e-3 {
			t.Fatalf("component %d differs by %v", i, dd)
		}
	}
}

func TestMinHashMRMatchesReference(t *testing.T) {
	pts := gaussPoints(100)
	pl, d := mrDriver(t, 6, pts)
	var mr Result
	_, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, pts); err != nil {
			return err
		}
		var err error
		mr, err = MinHashMR(p, d, DefaultMinHashOptions())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MinHash(pts, DefaultMinHashOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Groups) != len(ref.Groups) {
		t.Fatalf("groups: mr=%d ref=%d", len(mr.Groups), len(ref.Groups))
	}
	for i := range ref.Groups {
		if len(mr.Groups[i]) != len(ref.Groups[i]) {
			t.Fatalf("group %d sizes differ: %d vs %d", i, len(mr.Groups[i]), len(ref.Groups[i]))
		}
		for j := range ref.Groups[i] {
			if mr.Groups[i][j] != ref.Groups[i][j] {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

func TestClusteringRuntimeGrowsWithClusterSize(t *testing.T) {
	// The Figure 6 effect: fixed small input, bigger virtual cluster, longer
	// runtime (more per-node communication and task overhead).
	runtime := func(nodes int) sim.Time {
		series := datasets.ControlChart(sim.New(42).Rand(), datasets.ControlChartOptions{PerClass: 50, Length: 60})
		vecs := FromFloats(datasets.ControlVectors(series))
		pl, d := mrDriver(t, nodes, vecs)
		var mr Result
		_, err := pl.Run(func(p *sim.Proc) error {
			if err := d.Load(p, vecs); err != nil {
				return err
			}
			var err error
			mr, err = CanopyMR(p, d, CanopyOptions{T1: 80, T2: 40})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return mr.Runtime
	}
	small, large := runtime(2), runtime(16)
	if large <= small {
		t.Fatalf("16-node canopy (%v) not slower than 2-node (%v)", large, small)
	}
}

func TestDriverLoadRejectsMixedDims(t *testing.T) {
	pl, d := mrDriver(t, 4, nil)
	var loadErr error
	_, _ = pl.Run(func(p *sim.Proc) error {
		loadErr = d.Load(p, []Vector{{1, 2}, {1, 2, 3}})
		return nil
	})
	if loadErr == nil {
		t.Fatal("mixed-dimension load accepted")
	}
	if !math.IsNaN(math.NaN()) {
		t.Fatal("sanity")
	}
}

// TestBadInitialCentersRejected feeds every k-means and fuzzy k-means entry
// point initial centers it cannot start from. Each must return an error, and
// the MapReduce drivers must do so before writing state or submitting a job.
func TestBadInitialCentersRejected(t *testing.T) {
	pts, _ := threeBlobs(5)
	fuzzy := DefaultFuzzyKMeansOptions(2)
	entries := []struct {
		name string
		mem  func(initial []Vector) (Result, error)
		mr   func(p *sim.Proc, d *Driver, initial []Vector) (Result, error)
	}{
		{name: "kmeans",
			mem: func(initial []Vector) (Result, error) { return KMeans(pts, initial, DefaultKMeansOptions(2)) },
			mr: func(p *sim.Proc, d *Driver, initial []Vector) (Result, error) {
				return KMeansMR(p, d, initial, DefaultKMeansOptions(2))
			}},
		{name: "fuzzykmeans",
			mem: func(initial []Vector) (Result, error) { return FuzzyKMeans(pts, initial, fuzzy) },
			mr: func(p *sim.Proc, d *Driver, initial []Vector) (Result, error) {
				return FuzzyKMeansMR(p, d, initial, fuzzy)
			}},
	}
	bad := []struct {
		name    string
		initial []Vector
	}{
		{"no centers", nil},
		{"1-dim center on 2-dim data", []Vector{{0}, {1, 1}}},
		{"3-dim center on 2-dim data", []Vector{{0, 0}, {1, 1, 1}}},
	}
	for _, e := range entries {
		for _, b := range bad {
			if _, err := e.mem(b.initial); err == nil {
				t.Errorf("%s, %s: accepted in memory", e.name, b.name)
			}
			pl, d := mrDriver(t, 2, pts)
			var mrErr error
			_, err := pl.Run(func(p *sim.Proc) error {
				if err := d.Load(p, pts); err != nil {
					return err
				}
				before := p.Now()
				_, mrErr = e.mr(p, d, b.initial)
				if p.Now() != before {
					t.Errorf("%s, %s: MapReduce run spent %v virtual seconds before failing", e.name, b.name, p.Now()-before)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if mrErr == nil {
				t.Errorf("%s, %s: accepted by the MapReduce driver", e.name, b.name)
			}
		}
	}
}
