package vhadoop_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// TestTeraSortGolden pins seed-1 TeraSort runs at the three sizes of
// vhbench's terasort op — both measured step times and every output row,
// in order, with its virtual size — to fixed digests. It guards the record
// plane: generating rows, choosing the partition boundaries, cutting rows
// into blocks and splits, and shuffling them may get cheaper, but must
// make the same picks. The 100 MB digest was computed before TeraGen's
// rows moved into one arena with pointer values and blocks became
// contiguous sub-slices (parent commit da97288), the 400 and 1000 MB ones
// before the boundaries were selected instead of sorted (parent commit
// 11092e4). When classes of activities became the max-min solver's unit,
// the 400 and 1000 MB sort times moved in their last bits (23.683554694521
// to 23.683554694521007 s, +3.0e-16 relative, and 82.87551821683707 to
// 82.87551821684154 s, +5.4e-14), with every output row the same, so their
// digests moved from 71d01ed5… and 8331f562…. A change that moves one
// changes the simulation.
func TestTeraSortGolden(t *testing.T) {
	for _, tc := range []struct {
		mb     float64
		golden string
	}{
		{100, "bab8562c2ff2a4ca41a05549e6128536ee0b423f916ad5df2ddeecc670c85065"},
		{400, "34ff30b3b899741dc3d40bf4a28a651134c74048e8551988c9053da122ef3f92"},
		{1000, "7c4038b418c71478cec0a0dd60acad00310bfc1a5aa0d5f2460edbd07fcd3c7f"},
	} {
		t.Run(fmt.Sprintf("%vMB", tc.mb), func(t *testing.T) {
			pl := core.MustNewPlatform(platformOpts(core.DefaultOptions().Nodes, core.Normal, 1))
			var res workloads.TeraResult
			if _, err := pl.Run(func(p *sim.Proc) error {
				var err error
				res, err = workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(tc.mb*1e6))
				return err
			}); err != nil {
				t.Fatalf("terasort failed: %v", err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "gen=%v sort=%v\n", res.GenTime, res.SortTime)
			for _, kv := range res.Output {
				fmt.Fprintf(h, "%s %v %v\n", kv.Key, kv.Value, kv.Size)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.golden {
				t.Fatalf("terasort digest = %s, want %s (%d rows, gen %v, sort %v)",
					got, tc.golden, len(res.Output), res.GenTime, res.SortTime)
			}
		})
	}
}
