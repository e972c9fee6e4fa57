package workloads_test

import (
	"cmp"
	"fmt"
	"slices"

	"vhadoop/internal/core"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// ExampleRunWordcount provisions the default 16-node virtual cluster (two
// physical machines, an NFS filer, HDFS and MapReduce daemons on every VM),
// loads a 512 MB corpus into HDFS and runs Wordcount over it. It prints the
// job statistics and the ten most frequent words.
func ExampleRunWordcount() {
	pl := core.MustNewPlatform(core.DefaultOptions())

	var res workloads.WordcountResult
	end, err := pl.Run(func(p *sim.Proc) error {
		var err error
		res, err = workloads.RunWordcount(p, pl, "/quickstart/corpus", 512e6, 4, true)
		return err
	})
	if err != nil {
		fmt.Println("wordcount failed:", err)
		return
	}

	s := res.Stats
	fmt.Printf("Wordcount over %.0f MB on a %d-node %s cluster\n",
		res.InputBytes/1e6, pl.Opts.Nodes, pl.Opts.Layout)
	fmt.Printf("  job runtime:      %.1f s (virtual)\n", s.Runtime)
	fmt.Printf("  map tasks:        %d (%d data-local)\n", s.MapTasks, s.LocalMaps)
	fmt.Printf("  reduce tasks:     %d\n", s.ReduceTasks)
	fmt.Printf("  shuffled:         %.1f MB\n", s.ShuffledBytes/1e6)
	fmt.Printf("  distinct words:   %d\n", len(res.Counts))
	fmt.Printf("  simulation ended: t=%.1f s\n", end)

	type wc struct {
		word string
		n    int
	}
	top := make([]wc, 0, len(res.Counts))
	for w, n := range res.Counts {
		top = append(top, wc{w, n})
	}
	// Count descending, then word ascending: a total order, so the ranking
	// does not depend on map iteration order.
	slices.SortFunc(top, func(a, b wc) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return cmp.Compare(a.word, b.word)
	})
	fmt.Println("  top words:")
	for _, t := range top[:min(10, len(top))] {
		fmt.Printf("    %-10s %6d\n", t.word, t.n)
	}
	// Output:
	// Wordcount over 512 MB on a 16-node normal cluster
	//   job runtime:      21.3 s (virtual)
	//   map tasks:        8 (3 data-local)
	//   reduce tasks:     4
	//   shuffled:         0.0 MB
	//   distinct words:   465
	//   simulation ended: t=40.0 s
	//   top words:
	//     ba           1439
	//     be            636
	//     bi            377
	//     bo            275
	//     bu            206
	//     ca            156
	//     ce            152
	//     ci            115
	//     co            105
	//     cu            105
}
