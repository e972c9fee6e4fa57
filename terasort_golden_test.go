package vhadoop_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// TestTeraSortGolden pins a 100 MB, seed-1 TeraSort run — both measured
// step times and every output row, in order, with its virtual size — to a
// fixed digest. It guards the record plane: generating rows, cutting them
// into blocks and splits, and shuffling them may get cheaper, but must
// make the same picks. The digest was computed before TeraGen's rows moved
// into one arena with pointer values and blocks became contiguous
// sub-slices (parent commit da97288); a change that moves it changes the
// simulation.
func TestTeraSortGolden(t *testing.T) {
	const golden = "bab8562c2ff2a4ca41a05549e6128536ee0b423f916ad5df2ddeecc670c85065"
	pl := core.MustNewPlatform(platformOpts(core.DefaultOptions().Nodes, core.Normal, 1))
	var res workloads.TeraResult
	if _, err := pl.Run(func(p *sim.Proc) error {
		var err error
		res, err = workloads.RunTeraSort(p, pl, workloads.DefaultTeraOptions(100e6))
		return err
	}); err != nil {
		t.Fatalf("terasort failed: %v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "gen=%v sort=%v\n", res.GenTime, res.SortTime)
	for _, kv := range res.Output {
		fmt.Fprintf(h, "%s %v %v\n", kv.Key, kv.Value, kv.Size)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("terasort digest = %s, want %s (%d rows, gen %v, sort %v)",
			got, golden, len(res.Output), res.GenTime, res.SortTime)
	}
}
