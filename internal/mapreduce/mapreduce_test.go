package mapreduce_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"vhadoop/internal/core"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// lineRecords turns lines of text into records of the given virtual size.
func lineRecords(lines []string, each float64) []hdfs.Record {
	recs := make([]hdfs.Record, len(lines))
	for i, l := range lines {
		recs[i] = hdfs.Record{Key: fmt.Sprintf("line%05d", i), Value: l, Size: each}
	}
	return recs
}

// wordcountJob builds the canonical wordcount job over input.
func wordcountJob(input, output string, reduces int, combine bool) mapreduce.JobSpec {
	cfg := mapreduce.JobSpec{
		Name:       "wordcount",
		Input:      []string{input},
		Output:     output,
		NumReduces: reduces,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key string, value any, emit mapreduce.Emit) {
				words := strings.Fields(value.(string))
				for _, w := range words {
					emit(w, 1, 16)
				}
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				sum := 0
				for _, v := range values {
					sum += v.(int)
				}
				emit(key, sum, 24)
			})
		},
		Cost: mapreduce.CostModel{
			MapCPUPerByte:       2.5e-8, // ~40 MB/s of mapping per core
			SortCPUPerByte:      5e-9,
			ReduceCPUPerByte:    1e-8,
			CombineCPUPerRecord: 1e-6,
			TaskSetupCPU:        1.5,
		},
	}
	if combine {
		cfg.NewCombiner = cfg.NewReducer
	}
	return cfg
}

// runJob and runCollect submit a job and wait for it; runCollect also
// returns the job's output records.
func runJob(p *sim.Proc, c *mapreduce.Cluster, cfg mapreduce.JobSpec) (mapreduce.JobStats, error) {
	h, err := c.Submit(p, cfg)
	if err != nil {
		return mapreduce.JobStats{}, err
	}
	return h.Wait(p)
}

func runCollect(p *sim.Proc, c *mapreduce.Cluster, cfg mapreduce.JobSpec) ([]mapreduce.KV, mapreduce.JobStats, error) {
	h, err := c.Submit(p, cfg)
	if err != nil {
		return nil, mapreduce.JobStats{}, err
	}
	stats, err := h.Wait(p)
	if err != nil {
		return nil, stats, err
	}
	return h.OutputRecords(), stats, nil
}

// runWordcount provisions a platform, loads sizeBytes of input made of the
// given lines, runs wordcount and returns stats plus real output counts.
func runWordcount(t *testing.T, opts core.Options, lines []string, sizeBytes float64, reduces int, combine bool) (mapreduce.JobStats, map[string]int) {
	t.Helper()
	pl := core.MustNewPlatform(opts)
	var stats mapreduce.JobStats
	counts := map[string]int{}
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", sizeBytes, lineRecords(lines, sizeBytes/float64(len(lines)))); err != nil {
			return err
		}
		out, st, err := runCollect(p, pl.MR, wordcountJob("/in", "/out", reduces, combine))
		if err != nil {
			return err
		}
		stats = st
		for _, kv := range out {
			counts[kv.Key] = kv.Value.(int)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("wordcount run: %v", err)
	}
	return stats, counts
}

func smallOpts(nodes int, layout core.Layout) core.Options {
	opts := core.DefaultOptions()
	opts.Nodes = nodes
	opts.Layout = layout
	return opts
}

var testLines = []string{
	"the quick brown fox", "jumps over the lazy dog",
	"the dog barks", "quick quick fox",
}

func TestWordcountCorrectCounts(t *testing.T) {
	stats, counts := runWordcount(t, smallOpts(5, core.Normal), testLines, 128e6, 2, false)
	want := map[string]int{
		"the": 3, "quick": 3, "brown": 1, "fox": 2, "jumps": 1,
		"over": 1, "lazy": 1, "dog": 2, "barks": 1,
	}
	if len(counts) != len(want) {
		t.Fatalf("got %d distinct words, want %d: %v", len(counts), len(want), counts)
	}
	for w, n := range want {
		if counts[w] != n {
			t.Fatalf("count[%q] = %d, want %d", w, counts[w], n)
		}
	}
	if stats.Runtime <= 0 {
		t.Fatalf("runtime = %v", stats.Runtime)
	}
	if stats.MapTasks != 2 { // 128MB / 64MB blocks
		t.Fatalf("map tasks = %d, want 2", stats.MapTasks)
	}
	if stats.ReduceTasks != 2 {
		t.Fatalf("reduce tasks = %d, want 2", stats.ReduceTasks)
	}
	if stats.OutputRecords != len(want) {
		t.Fatalf("output records = %d", stats.OutputRecords)
	}
}

func TestOutputLandsInHDFS(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(5, core.Normal))
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords(testLines, 1e6)); err != nil {
			return err
		}
		_, err := runJob(p, pl.MR, wordcountJob("/in", "/out", 2, false))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, name := range pl.DFS.Files() {
		if strings.HasPrefix(name, "/out/part-r-") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d reduce output files, want 2: %v", found, pl.DFS.Files())
	}
}

func TestMapOnlyJob(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(4, core.Normal))
	var out []mapreduce.KV
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords([]string{"a b", "c"}, 1e6)); err != nil {
			return err
		}
		cfg := mapreduce.JobSpec{
			Name:  "identity",
			Input: []string{"/in"},
			NewMapper: func() mapreduce.Mapper {
				return mapreduce.MapperFunc(func(k string, v any, emit mapreduce.Emit) {
					emit(k, v, 8)
				})
			},
			Cost: mapreduce.CostModel{TaskSetupCPU: 1},
		}
		var err error
		out, _, err = runCollect(p, pl.MR, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("map-only output records = %d, want 2", len(out))
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	// Many repeated words: combining should collapse per-map duplicates.
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = "alpha beta alpha gamma alpha"
	}
	noComb, c1 := runWordcount(t, smallOpts(5, core.Normal), lines, 128e6, 1, false)
	comb, c2 := runWordcount(t, smallOpts(5, core.Normal), lines, 128e6, 1, true)
	if comb.ShuffledBytes >= noComb.ShuffledBytes {
		t.Fatalf("combiner did not shrink shuffle: %v vs %v", comb.ShuffledBytes, noComb.ShuffledBytes)
	}
	for w, n := range c1 {
		if c2[w] != n {
			t.Fatalf("combiner changed counts: %q %d vs %d", w, c2[w], n)
		}
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	stats, _ := runWordcount(t, smallOpts(9, core.Normal), testLines, 512e6, 2, false)
	if stats.LocalMaps == 0 {
		t.Fatal("no data-local map tasks at all")
	}
	frac := float64(stats.LocalMaps) / float64(stats.MapTasks)
	if frac < 0.5 {
		t.Fatalf("only %.0f%% of maps were data-local", frac*100)
	}
}

func TestMissingInputFails(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(4, core.Normal))
	_, err := pl.Run(func(p *sim.Proc) error {
		_, err := runJob(p, pl.MR, wordcountJob("/nope", "", 1, false))
		return err
	})
	if err == nil {
		t.Fatal("job over missing input succeeded")
	}
}

func TestCrossDomainShuffleCrossesGuestNICs(t *testing.T) {
	// The structural cross-domain difference: a shuffle-heavy job's traffic
	// stays on the virtual bridge in the normal layout but crosses the
	// inter-machine guest NICs in the cross-domain layout, and the job is
	// never meaningfully faster there.
	run := func(layout core.Layout) (sim.Time, float64) {
		pl := core.MustNewPlatform(smallOpts(16, layout))
		var stats mapreduce.JobStats
		_, err := pl.Run(func(p *sim.Proc) error {
			recs := lineRecords(make([]string, 32), 2048e6/32)
			if _, err := pl.LoadText(p, "/in", 2048e6, recs); err != nil {
				return err
			}
			cfg := identityJob("/in", 4)
			cfg.NewMapper = func() mapreduce.Mapper {
				return mapreduce.MapperFunc(func(k string, v any, emit mapreduce.Emit) {
					emit(k, v, 2048e6/32) // full-volume shuffle
				})
			}
			cfg.Cost = mapreduce.CostModel{TaskSetupCPU: 1.5, SortCPUPerByte: 5e-9}
			var err error
			stats, err = runJob(p, pl.MR, cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		crossing := pl.PMs[0].NICTx.BytesCarried() + pl.PMs[1].NICTx.BytesCarried()
		return stats.Runtime, crossing
	}
	normalT, normalX := run(core.Normal)
	crossT, crossX := run(core.CrossDomain)
	if normalX != 0 {
		t.Fatalf("normal layout moved %.0f bytes over guest NICs, want 0", normalX)
	}
	if crossX < 500e6 {
		t.Fatalf("cross-domain moved only %.0f bytes over guest NICs", crossX)
	}
	// NFS serialisation dominates this job equally in both layouts, so the
	// runtimes sit near parity; the cross layout must not win outright.
	if crossT < normalT*0.95 {
		t.Fatalf("cross-domain (%v) much faster than normal (%v)", crossT, normalT)
	}
}

// identityJob emits each record unchanged at full virtual size, so the map
// output volume equals the input volume (like TeraSort's map phase).
func identityJob(input string, reduces int) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:       "identity",
		Input:      []string{input},
		NumReduces: reduces,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k string, v any, emit mapreduce.Emit) {
				emit(k, v, 0) // size patched by caller via record size below
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(k string, vs []any, emit mapreduce.Emit) {
				for _, v := range vs {
					emit(k, v, 8)
				}
			})
		},
		Cost: mapreduce.CostModel{TaskSetupCPU: 1, SortCPUPerByte: 1e-9},
	}
}

func runSpill(t *testing.T, sortBuf float64) mapreduce.JobStats {
	t.Helper()
	opts := smallOpts(5, core.Normal)
	opts.MR.SortBufferBytes = sortBuf
	pl := core.MustNewPlatform(opts)
	var stats mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		recs := lineRecords(make([]string, 64), 256e6/64)
		if _, err := pl.LoadText(p, "/in", 256e6, recs); err != nil {
			return err
		}
		cfg := identityJob("/in", 1)
		// Emit at the full per-record virtual size: 64MB blocks of map
		// output per task, far above a small sort buffer.
		cfg.NewMapper = func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(k string, v any, emit mapreduce.Emit) {
				emit(k, v, 256e6/64)
			})
		}
		var err error
		stats, err = runJob(p, pl.MR, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestSpillWhenSortBufferSmall(t *testing.T) {
	small := runSpill(t, 8e6)
	if small.SpillBytes == 0 {
		t.Fatal("no spill bytes with an 8MB sort buffer")
	}
	big := runSpill(t, 1e9)
	if big.SpillBytes != 0 {
		t.Fatalf("spills with a 1GB buffer: %v", big.SpillBytes)
	}
	if small.Runtime <= big.Runtime {
		t.Fatalf("spilling run (%v) not slower than in-memory run (%v)", small.Runtime, big.Runtime)
	}
}

func TestTaskReexecutionAfterVMCrash(t *testing.T) {
	opts := smallOpts(6, core.Normal)
	opts.MR.TrackerTimeout = 10
	pl := core.MustNewPlatform(opts)
	lines := make([]string, 32)
	for i := range lines {
		lines[i] = fmt.Sprintf("x%d y z", i)
	}
	var stats mapreduce.JobStats
	counts := map[string]int{}
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 2048e6, lineRecords(lines, 2048e6/32)); err != nil {
			return err
		}
		// Crash one worker 20s into the job (well before its ~32 maps on 10
		// slots can finish).
		pl.Engine.After(20, func() { pl.VMs[2].Crash() })
		out, st, err := runCollect(p, pl.MR, wordcountJob("/in", "", 2, false))
		if err != nil {
			return err
		}
		stats = st
		for _, kv := range out {
			counts[kv.Key] = kv.Value.(int)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("job did not survive VM crash: %v", err)
	}
	if counts["z"] != 32 {
		t.Fatalf("lost records after crash: z=%d, want 32", counts["z"])
	}
	if stats.Attempts <= stats.MapTasks+stats.ReduceTasks {
		t.Fatalf("no re-execution recorded: attempts=%d tasks=%d",
			stats.Attempts, stats.MapTasks+stats.ReduceTasks)
	}
}

func TestTrackerHangDeclaredDeadButJobCompletes(t *testing.T) {
	// A tasktracker that goes heartbeat-silent (without its VM dying) must
	// be declared dead past the timeout and its tasks re-executed elsewhere.
	// The zombie's tasks keep running and eventually report success — those
	// late completions must be discarded, or reducers would wait forever on
	// map output the jobtracker has written off.
	opts := smallOpts(6, core.Normal)
	opts.MR.TrackerTimeout = 10
	pl := core.MustNewPlatform(opts)
	lines := make([]string, 32)
	for i := range lines {
		lines[i] = fmt.Sprintf("x%d y z", i)
	}
	var stats mapreduce.JobStats
	counts := map[string]int{}
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 2048e6, lineRecords(lines, 2048e6/32)); err != nil {
			return err
		}
		zombie := pl.MR.Trackers()[1]
		pl.Engine.After(20, func() { zombie.Hang(1e6) })
		out, st, err := runCollect(p, pl.MR, wordcountJob("/in", "", 2, false))
		if err != nil {
			return err
		}
		stats = st
		for _, kv := range out {
			counts[kv.Key] = kv.Value.(int)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("job did not survive tracker hang: %v", err)
	}
	if counts["z"] != 32 {
		t.Fatalf("lost or duplicated records after hang: z=%d, want 32", counts["z"])
	}
	if stats.Attempts <= stats.MapTasks+stats.ReduceTasks {
		t.Fatalf("no re-execution recorded: attempts=%d tasks=%d",
			stats.Attempts, stats.MapTasks+stats.ReduceTasks)
	}
}

func TestTrackerShortHangRecovers(t *testing.T) {
	// A hang shorter than the timeout only delays heartbeats: the tracker
	// is never declared dead and no task is re-executed.
	opts := smallOpts(5, core.Normal)
	opts.MR.TrackerTimeout = 30
	pl := core.MustNewPlatform(opts)
	var stats mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 128e6, lineRecords(testLines, 32e6)); err != nil {
			return err
		}
		tr := pl.MR.Trackers()[0]
		pl.Engine.After(5, func() { tr.Hang(pl.Engine.Now() + 15) })
		var err error
		stats, err = runJob(p, pl.MR, wordcountJob("/in", "", 2, false))
		return err
	})
	if err != nil {
		t.Fatalf("job did not survive short hang: %v", err)
	}
	for _, tr := range pl.MR.Trackers() {
		if !tr.Alive() {
			t.Fatalf("tracker %s declared dead after sub-timeout hang", tr.VM.Name)
		}
	}
	if stats.Attempts != stats.MapTasks+stats.ReduceTasks {
		t.Fatalf("unexpected re-execution: attempts=%d tasks=%d",
			stats.Attempts, stats.MapTasks+stats.ReduceTasks)
	}
}

func TestSpeculativeExecutionDuplicatesStraggler(t *testing.T) {
	opts := smallOpts(6, core.Normal)
	opts.MR.Speculative = true
	opts.MR.SpeculativeFraction = 0.5
	opts.MR.SpeculativeSlowdown = 1.3
	pl := core.MustNewPlatform(opts)
	lines := make([]string, 16)
	for i := range lines {
		lines[i] = "a b c"
	}
	// CPU hogs time-slicing one worker's single VCPU make its tasks run at
	// quarter speed: clear stragglers.
	hogVM := pl.VMs[3]
	for i := 0; i < 3; i++ {
		pl.Engine.Spawn("hog", func(p *sim.Proc) {
			hogVM.Exec(p, 120) // bounded so the simulation drains after the job
		})
	}
	var stats mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 640e6, lineRecords(lines, 40e6)); err != nil {
			return err
		}
		cfg := wordcountJob("/in", "", 1, false)
		cfg.Cost.MapCPUPerByte = 1.2e-7 // CPU-dominated maps amplify the straggler
		var err error
		stats, err = runJob(p, pl.MR, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts <= stats.MapTasks+stats.ReduceTasks {
		t.Fatalf("no speculative attempts: attempts=%d tasks=%d",
			stats.Attempts, stats.MapTasks+stats.ReduceTasks)
	}
}

func TestDeterministicRuntime(t *testing.T) {
	s1, _ := runWordcount(t, smallOpts(8, core.Normal), testLines, 256e6, 2, false)
	s2, _ := runWordcount(t, smallOpts(8, core.Normal), testLines, 256e6, 2, false)
	if s1.Runtime != s2.Runtime {
		t.Fatalf("same seed, different runtimes: %v vs %v", s1.Runtime, s2.Runtime)
	}
}

// Property: every emitted word is counted exactly once regardless of the
// number of reduce tasks.
func TestCountConservationProperty(t *testing.T) {
	prop := func(wordsRaw []uint8, reducesRaw uint8) bool {
		if len(wordsRaw) == 0 {
			return true
		}
		if len(wordsRaw) > 60 {
			wordsRaw = wordsRaw[:60]
		}
		reduces := int(reducesRaw%4) + 1
		var sb strings.Builder
		total := 0
		for _, w := range wordsRaw {
			fmt.Fprintf(&sb, "w%d ", w%16)
			total++
		}
		_, counts := runWordcount(t, smallOpts(4, core.Normal), []string{sb.String()}, 64e6, reduces, false)
		got := 0
		for _, n := range counts {
			got += n
		}
		return got == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeLoserIsKilled(t *testing.T) {
	opts := smallOpts(6, core.Normal)
	opts.MR.Speculative = true
	opts.MR.SpeculativeFraction = 0.5
	opts.MR.SpeculativeSlowdown = 1.3
	pl := core.MustNewPlatform(opts)
	hogVM := pl.VMs[3]
	for i := 0; i < 3; i++ {
		pl.Engine.Spawn("hog", func(p *sim.Proc) {
			hogVM.Exec(p, 120)
		})
	}
	var stats mapreduce.JobStats
	end, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 640e6, lineRecords(make([]string, 16), 40e6)); err != nil {
			return err
		}
		cfg := wordcountJob("/in", "", 1, false)
		cfg.Cost.MapCPUPerByte = 1.2e-7
		var err error
		stats, err = runJob(p, pl.MR, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts <= stats.MapTasks+stats.ReduceTasks {
		t.Fatal("no speculation happened; kill path not exercised")
	}
	// The straggler attempts on the hogged VM must be aborted when their
	// duplicates win: the simulation must not wait for them to grind
	// through the hog (the hogs alone run 360 VCPU-seconds).
	if end > 390 {
		t.Fatalf("simulation drained at %v: killed attempts kept running", end)
	}
}

func TestConcurrentJobsShareTheCluster(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(8, core.Normal))
	var first, second mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in1", 512e6, lineRecords(make([]string, 16), 32e6)); err != nil {
			return err
		}
		if _, err := pl.LoadText(p, "/in2", 512e6, lineRecords(make([]string, 16), 32e6)); err != nil {
			return err
		}
		h1, err := pl.MR.Submit(p, identityJob("/in1", 2))
		if err != nil {
			return err
		}
		h2, err := pl.MR.Submit(p, identityJob("/in2", 2))
		if err != nil {
			return err
		}
		if first, err = h1.Wait(p); err != nil {
			return err
		}
		second, err = h2.Wait(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// FIFO scheduling (Hadoop 0.20's default JobQueueTaskScheduler): the
	// first-submitted job's tasks go first, so it finishes no later.
	if first.Finished > second.Finished {
		t.Fatalf("FIFO violated: job1 finished %v after job2 %v", first.Finished, second.Finished)
	}
	if first.Runtime <= 0 || second.Runtime <= 0 {
		t.Fatal("jobs did not run")
	}
}

func TestReconfigureAdjustsSlots(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(4, core.Normal))
	cfg := pl.MR.Config()
	cfg.MapSlots = 4
	pl.MR.Reconfigure(cfg)
	if got := pl.MR.Config().MapSlots; got != 4 {
		t.Fatalf("map slots = %d", got)
	}
	// The widened slots must actually be usable: an 8-map job on 3 workers
	// x 4 slots runs in a single wave.
	var stats mapreduce.JobStats
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 512e6, lineRecords(make([]string, 16), 32e6)); err != nil {
			return err
		}
		var err error
		stats, err = runJob(p, pl.MR, identityJob("/in", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapTasks != 8 {
		t.Fatalf("maps = %d", stats.MapTasks)
	}
}

func TestMissingSideInputFailsJob(t *testing.T) {
	pl := core.MustNewPlatform(smallOpts(4, core.Normal))
	_, err := pl.Run(func(p *sim.Proc) error {
		if _, err := pl.LoadText(p, "/in", 64e6, lineRecords(make([]string, 4), 16e6)); err != nil {
			return err
		}
		cfg := identityJob("/in", 1)
		cfg.SideInput = []string{"/does-not-exist"}
		_, err := runJob(p, pl.MR, cfg)
		return err
	})
	if err == nil {
		t.Fatal("job with missing side input succeeded")
	}
}
