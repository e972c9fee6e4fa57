package workloads

import (
	"strings"
	"testing"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/sim"
)

func platform(t *testing.T, nodes int, layout core.Layout) *core.Platform {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Nodes = nodes
	opts.Layout = layout
	return core.MustNewPlatform(opts)
}

func TestWordcountMatchesReferenceCounts(t *testing.T) {
	pl := platform(t, 8, core.Normal)
	var res WordcountResult
	_, err := pl.Run(func(p *sim.Proc) error {
		var err error
		res, err = RunWordcount(p, pl, "/wc/in", 256e6, 2, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the reference counts from the same deterministic corpus.
	ref := datasets.CountWords(datasets.Text(
		sim.New(pl.Opts.Seed).Rand(), datasets.DefaultTextOptions(256e6)))
	if len(res.Counts) != len(ref) {
		t.Fatalf("distinct words = %d, want %d", len(res.Counts), len(ref))
	}
	for w, n := range ref {
		if res.Counts[w] != n {
			t.Fatalf("count[%q] = %d, want %d", w, res.Counts[w], n)
		}
	}
	if res.Stats.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
}

// TestTokenizerZeroAllocs gates the wordcount map's tokenizer: counting and
// walking the words of an ASCII line allocate nothing, however many words
// it holds.
func TestTokenizerZeroAllocs(t *testing.T) {
	line := strings.Join(datasets.Vocabulary(160), " ")
	if n := testing.AllocsPerRun(100, func() { countWords(line) }); n != 0 {
		t.Errorf("countWords: %v allocs per line, want 0", n)
	}
	words := 0
	if n := testing.AllocsPerRun(100, func() { eachWord(line, func(string) { words++ }) }); n != 0 {
		t.Errorf("eachWord: %v allocs per line, want 0", n)
	}
	if got := countWords(line); got != 160 || words != 101*160 {
		t.Fatalf("countWords = %d, eachWord visited %d words; want 160 and %d", got, words, 101*160)
	}
}

func TestWordcountScalesWithInput(t *testing.T) {
	run := func(size float64) sim.Time {
		pl := platform(t, 8, core.Normal)
		var res WordcountResult
		if _, err := pl.Run(func(p *sim.Proc) error {
			var err error
			res, err = RunWordcount(p, pl, "/wc/in", size, 2, true)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return res.Stats.Runtime
	}
	small, large := run(128e6), run(1024e6)
	if large <= small {
		t.Fatalf("1GB wordcount (%v) not slower than 128MB (%v)", large, small)
	}
}

func TestMRBenchMapsScaleRuntime(t *testing.T) {
	run := func(maps int) sim.Time {
		pl := platform(t, 16, core.Normal)
		var res MRBenchResult
		if _, err := pl.Run(func(p *sim.Proc) error {
			opts := DefaultMRBenchOptions()
			opts.Maps = maps
			var err error
			res, err = RunMRBench(p, pl, opts)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return res.AvgTime
	}
	t1, t6 := run(1), run(6)
	if t6 <= t1 {
		t.Fatalf("6-map MRBench (%v) not slower than 1-map (%v)", t6, t1)
	}
}

func TestMRBenchMultipleRuns(t *testing.T) {
	pl := platform(t, 8, core.Normal)
	var res MRBenchResult
	if _, err := pl.Run(func(p *sim.Proc) error {
		opts := DefaultMRBenchOptions()
		opts.NumRuns = 3
		var err error
		res, err = RunMRBench(p, pl, opts)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 3 {
		t.Fatalf("times = %v, want 3 runs", res.Times)
	}
	for _, tt := range res.Times {
		if tt <= 0 {
			t.Fatalf("non-positive run time %v", tt)
		}
	}
}

func TestTeraSortSortsAndValidates(t *testing.T) {
	pl := platform(t, 8, core.Normal)
	var res TeraResult
	if _, err := pl.Run(func(p *sim.Proc) error {
		var err error
		res, err = RunTeraSort(p, pl, DefaultTeraOptions(200e6))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatal("terasort output failed validation")
	}
	if res.Rows != res.Options.RealRows {
		t.Fatalf("rows out = %d, want %d", res.Rows, res.Options.RealRows)
	}
	if res.GenTime <= 0 || res.SortTime <= 0 {
		t.Fatalf("gen=%v sort=%v", res.GenTime, res.SortTime)
	}
}

func TestTeraSortScalesWithData(t *testing.T) {
	run := func(bytes float64) TeraResult {
		pl := platform(t, 8, core.Normal)
		var res TeraResult
		if _, err := pl.Run(func(p *sim.Proc) error {
			var err error
			res, err = RunTeraSort(p, pl, DefaultTeraOptions(bytes))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return res
	}
	small, large := run(100e6), run(600e6)
	if large.SortTime <= small.SortTime {
		t.Fatalf("600MB sort (%v) not slower than 100MB (%v)", large.SortTime, small.SortTime)
	}
	if large.GenTime <= small.GenTime {
		t.Fatalf("600MB gen (%v) not slower than 100MB (%v)", large.GenTime, small.GenTime)
	}
}

func TestDFSIOReadFasterThanWrite(t *testing.T) {
	pl := platform(t, 16, core.Normal)
	var w, r DFSIOResult
	if _, err := pl.Run(func(p *sim.Proc) error {
		opts := DFSIOOptions{Files: 8, FileBytes: 128e6}
		var err error
		if w, err = RunDFSIOWrite(p, pl, opts); err != nil {
			return err
		}
		r, err = RunDFSIORead(p, pl, opts)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if r.ThroughputMBps <= w.ThroughputMBps {
		t.Fatalf("read throughput (%.1f MB/s) not above write (%.1f MB/s)",
			r.ThroughputMBps, w.ThroughputMBps)
	}
}

func TestDFSIOCrossDomainSlower(t *testing.T) {
	// Averaged over three seeds, like the paper's protocol: single runs of
	// an 8-file benchmark are sensitive to random replica placement.
	run := func(layout core.Layout) (float64, float64) {
		var wAvg, rAvg float64
		for seed := int64(1); seed <= 3; seed++ {
			opts := core.DefaultOptions()
			opts.Nodes = 16
			opts.Layout = layout
			opts.Seed = seed
			pl := core.MustNewPlatform(opts)
			var w, r DFSIOResult
			if _, err := pl.Run(func(p *sim.Proc) error {
				o := DFSIOOptions{Files: 8, FileBytes: 128e6}
				var err error
				if w, err = RunDFSIOWrite(p, pl, o); err != nil {
					return err
				}
				r, err = RunDFSIORead(p, pl, o)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			wAvg += w.ThroughputMBps / 3
			rAvg += r.ThroughputMBps / 3
		}
		return wAvg, rAvg
	}
	wN, rN := run(core.Normal)
	wX, rX := run(core.CrossDomain)
	// Writes are serialised by the filer disk in both layouts (the paper's
	// "NFS disk I/O bottleneck"): cross-domain must not be faster.
	if wX > wN*1.02 {
		t.Fatalf("cross-domain write throughput (%.1f) above normal (%.1f)", wX, wN)
	}
	// Reads come from the dom0 page cache of the machine holding the
	// replica: a cross-domain cluster pays the gigabit link, hard.
	if rX >= rN*0.8 {
		t.Fatalf("cross-domain read throughput (%.1f) not clearly below normal (%.1f)", rX, rN)
	}
}
