package clustering

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"vhadoop/internal/sim"
)

// centersDigest is a sha256 over the exact bit patterns of the centers, in
// order: any change in the arithmetic or the iteration count shows up here.
func centersDigest(centers []Vector) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range centers {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(c)))
		h.Write(buf[:])
		for _, x := range c {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClusteringMRGolden pins every MapReduce driver's virtual runtime, job
// count and centers on the Figure 7 input (the 1000-point DisplayClustering
// sample) with Figure 7's parameters, on a 2-node platform. The drivers'
// job plumbing and kernels must leave all of these bit-identical.
func TestClusteringMRGolden(t *testing.T) {
	cases := []struct {
		name       string
		iterations int
		jobs       int
		runtime    string // %.9g of the virtual seconds
		centers    string // centersDigest
		run        func(p *sim.Proc, d *Driver) (Result, error)
	}{
		{name: "canopy", iterations: 1, jobs: 1, runtime: "6.05159316",
			centers: "a8ce8a417a9a7f6bc03e5f2b2b25dd7bc0ec02c0652a0f7bb04f2e5c89a27554",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				return CanopyMR(p, d, CanopyOptions{T1: 3, T2: 1.5})
			}},
		{name: "dirichlet", iterations: 10, jobs: 10, runtime: "60.042226",
			centers: "9128051af5f5ca86ca71145140ec029d69819eac529862c3d7b1c2c7805dc0ce",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				return DirichletMR(p, d, DefaultDirichletOptions(10))
			}},
		{name: "fuzzykmeans", iterations: 10, jobs: 10, runtime: "60.041067",
			centers: "84517bcacccd334a13a9c48e1f6d80dbe39ddd51e8cc1cff69c20daa3121b190",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				opts := DefaultFuzzyKMeansOptions(3)
				opts.M = 3
				return FuzzyKMeansMR(p, d, d.InitCenters(3), opts)
			}},
		{name: "kmeans", iterations: 7, jobs: 7, runtime: "42.0403455",
			centers: "bc49344263561c2e382cdd2abe8c3e176fb3be8fb94d7cce039d207319b00655",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				return KMeansMR(p, d, d.InitCenters(3), DefaultKMeansOptions(3))
			}},
		{name: "meanshift", iterations: 10, jobs: 10, runtime: "60.0419747",
			centers: "d5171d616924e86b8a3ca763c34065c6c3e71a8dc11834cb7ca31b2a4e53bf0a",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				return MeanShiftMR(p, d, DefaultMeanShiftOptions(2, 1))
			}},
		{name: "minhash", iterations: 1, jobs: 1, runtime: "6.29456536",
			centers: "268890744ab8837d3e63069f7afabb4aed63079a44dc3de246681e48ebc39991",
			run: func(p *sim.Proc, d *Driver) (Result, error) {
				return MinHashMR(p, d, DefaultMinHashOptions())
			}},
	}
	pts := gaussPoints(1000)
	for _, tc := range cases {
		pl, d := mrDriver(t, 2, pts)
		var res Result
		_, err := pl.Run(func(p *sim.Proc) error {
			if err := d.Load(p, pts); err != nil {
				return err
			}
			var err error
			res, err = tc.run(p, d)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rt := fmt.Sprintf("%.9g", float64(res.Runtime))
		dg := centersDigest(res.Centers)
		if res.Iterations != tc.iterations || len(res.JobStats) != tc.jobs || rt != tc.runtime || dg != tc.centers {
			t.Errorf("%s: got iterations=%d jobs=%d runtime=%s centers=%s, want %d %d %s %s",
				tc.name, res.Iterations, len(res.JobStats), rt, dg, tc.iterations, tc.jobs, tc.runtime, tc.centers)
		}
	}
}
