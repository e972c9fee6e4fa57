package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// A run sets up at least minSetups times and until setupBudget seconds have
// gone into it; setup_s is the median. A 0.1 s set-up repeats often enough to
// be steady, a 2 s one does not take the run over.
const (
	minSetups   = 3
	setupBudget = 1.5
)

// runConfig is one (workload, run): what the contract's command line names.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	out     string // directory for trace.json and the CPU profile
}

// runInfo is what a run reports besides its metrics, so that two runs or
// two commits can be compared exactly.
type runInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops"` // per batch
	Batches    int    `json:"batches"`
	FailedOps  int    `json:"failed_ops"`
	SimDigest  string `json:"sim_digest"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// What the scaled timings were made from: the median batch's wall
	// seconds as measured and the median of the batches' mean yardstick slice.
	RawWallS    float64 `json:"raw_wall_s,omitempty"`
	YardSliceMs float64 `json:"yardstick_slice_ms,omitempty"`
	Smoke       bool    `json:"smoke,omitempty"`
	Unvalidated string  `json:"model"`
}

func sha(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// batchStats is the host cost and the virtual results of one batch.
type batchStats struct {
	wall, cpu    float64 // seconds as measured, the yardstick's slices taken out
	yard         yardReading
	mallocs      uint64
	bytes        uint64
	vsec         float64
	digest       [32]byte
	failed       int
	outs         []opOut
	gcCount      uint32
	gcPauseNs    uint64
	heapSysBytes uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// opSeeds derives the platform seeds of one batch from the run's seed: runs
// with different seeds share no op.
func opSeeds(seed int64, ops int) []int64 {
	seeds := make([]int64, ops)
	for i := range seeds {
		seeds[i] = seed*1000 + int64(i) + 1
	}
	return seeds
}

// runBatch runs the workload's ops once, in order, one simulation at a time;
// y, when not nil, runs its slices beside them.
func runBatch(w workload, in any, seeds []int64, tr *tracer, lay *layers, y *yardstick) batchStats {
	runtime.GC() // every batch starts from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	y.begin()
	outs := make([]opOut, len(seeds))
	for i, seed := range seeds {
		if tr != nil {
			tr.op = i
		}
		s := tr.begin("op")
		outs[i] = w.op(in, i, seed, tr, lay)
		tr.end(s)
	}
	yard := y.end()
	b := batchStats{wall: time.Since(t0).Seconds() - yard.wall, cpu: cpuSeconds() - cpu0 - yard.cpu, yard: yard, outs: outs}
	runtime.ReadMemStats(&m1)
	b.mallocs = m1.Mallocs - m0.Mallocs
	b.bytes = m1.TotalAlloc - m0.TotalAlloc
	b.gcCount = m1.NumGC - m0.NumGC
	b.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	b.heapSysBytes = m1.HeapSys
	h := sha256.New()
	for i, o := range outs {
		b.vsec += o.vsec
		if o.err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "vhbench: %s op %d (seed %d): %v\n", w.name, i, seeds[i], o.err)
		}
		fmt.Fprintf(h, "%d %s\n", i, o.digest)
	}
	copy(b.digest[:], h.Sum(nil))
	return b
}

// setUp generates the inputs and runs the warm-up ops (5 % of a batch, at
// least one), returning the inputs, the seconds it all took, scaled by y when
// that is not nil, and the milliseconds of input generation alone.
func setUp(w workload, seeds []int64, tr *tracer, y *yardstick) (in any, seconds, genMs float64) {
	runtime.GC()
	t0 := time.Now()
	y.begin()
	s := tr.begin("setup")
	g := tr.begin("input_gen")
	in = w.prepare(seeds)
	tr.end(g)
	genMs = float64(time.Since(t0)) / 1e6
	warm := (len(seeds) + 19) / 20
	for i := 0; i < warm; i++ {
		// The warm-up's counters are not the batch's: no layers.
		if o := w.op(in, i, seeds[i], tr, nil); o.err != nil {
			fmt.Fprintf(os.Stderr, "vhbench: %s warm-up op %d: %v\n", w.name, i, o.err)
		}
	}
	tr.end(s)
	yard := y.end()
	return in, (time.Since(t0).Seconds() - yard.wall) * yard.wallScale(), genMs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOf(bs []batchStats, f func(batchStats) float64) float64 {
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = f(b)
	}
	return median(xs)
}

// timedBatches repeats the batch until seconds have been measured, at least
// minBatches times; with a tracer the batches are traced, each into layers
// of its own. A batch whose virtual results differ from the first one's is a
// determinism failure and all its ops count as failed.
func timedBatches(w workload, in any, seeds []int64, seconds float64, minBatches int, tr *tracer, y *yardstick) ([]batchStats, []*layers) {
	var bs []batchStats
	var ls []*layers
	for t0 := time.Now(); len(bs) < minBatches || time.Since(t0).Seconds() < seconds; {
		var lay *layers
		if tr != nil {
			lay = newLayers()
		}
		b := runBatch(w, in, seeds, tr, lay, y)
		if len(bs) > 0 && b.digest != bs[0].digest {
			fmt.Fprintf(os.Stderr, "vhbench: %s batch %d: sim_digest %x differs from the first batch's %x\n",
				w.name, len(bs), b.digest[:6], bs[0].digest[:6])
			b.failed = len(seeds)
		}
		if len(bs) > 0 {
			b.outs = nil // only the first batch's outputs are checked
		}
		bs = append(bs, b)
		ls = append(ls, lay)
	}
	return bs, ls
}

// runWorkload is one run of one workload: set up, measure for cfg.seconds,
// check the outputs, and report either the end-to-end metrics (timed run)
// or the per-layer metrics (traced run).
func runWorkload(w workload, cfg runConfig) (result, runInfo, error) {
	// One P: the simulator runs one goroutine at a time, so a second P adds
	// only its wake-ups, which cost a VM exit each on a virtual CPU and were
	// the noisiest part of a run; and the yardstick needs the simulation to
	// stand still while a slice runs.
	runtime.GOMAXPROCS(1)
	seeds := opSeeds(cfg.seed, w.ops)
	// A traced run prints host times as measured, and its CPU profile must
	// hold the workload's samples alone: no yardstick there.
	var tr *tracer
	var y *yardstick
	if cfg.trace {
		tr = newTracer()
	} else {
		y = newYardstick()
		defer y.close()
	}

	var in any
	var setups, gens []float64
	atLeast, budget := minSetups, setupBudget
	if cfg.smoke {
		atLeast, budget = 1, 0
	}
	for spent := 0.0; len(setups) < atLeast || spent < budget; spent += setups[len(setups)-1] {
		var s, g float64
		in, s, g = setUp(w, seeds, tr, y)
		setups, gens = append(setups, s), append(gens, g)
	}

	info := runInfo{
		Workload: w.name, Seed: cfg.seed, Ops: w.ops, GOMAXPROCS: runtime.GOMAXPROCS(0), Smoke: cfg.smoke,
		Unvalidated: "unvalidated: the repository holds no numeric reference, so no error figure is given",
	}
	var bs []batchStats
	var values map[string]float64
	defs := endToEnd
	if !cfg.trace {
		// Two batches at least, so that every run shows its ops reproduce.
		bs, _ = timedBatches(w, in, seeds, cfg.seconds, 2, nil, y)
		ops := float64(w.ops)
		values = map[string]float64{
			"setup_s":            median(setups),
			"wall_s":             medianOf(bs, func(b batchStats) float64 { return b.wall * b.yard.wallScale() }),
			"cpu_s":              medianOf(bs, func(b batchStats) float64 { return b.cpu * b.yard.cpuScale() }),
			"vsec_per_wall_s":    medianOf(bs, func(b batchStats) float64 { return b.vsec / (b.wall * b.yard.wallScale()) }),
			"allocs_per_op":      medianOf(bs, func(b batchStats) float64 { return float64(b.mallocs) / ops }),
			"alloc_bytes_per_op": medianOf(bs, func(b batchStats) float64 { return float64(b.bytes) / ops }),
			"peak_rss_bytes":     peakRSSBytes(),
			"sim_vsec":           bs[0].vsec / ops,
		}
		info.RawWallS = medianOf(bs, func(b batchStats) float64 { return b.wall })
		info.YardSliceMs = medianOf(bs, func(b batchStats) float64 { return 1e3 * b.yard.wall / float64(b.yard.n) })
	} else {
		var err error
		bs, values, err = tracedRun(w, in, seeds, cfg, tr)
		if err != nil {
			return result{}, info, err
		}
		values["workloads.input_gen_ms"] = median(gens)
		defs = perLayer
	}

	res := result{Metrics: fill(defs, values)}
	for i, o := range bs[0].outs {
		if o.err == nil && o.check != nil {
			if err := o.check(); err != nil {
				fmt.Fprintf(os.Stderr, "vhbench: %s op %d (seed %d): %v\n", w.name, i, seeds[i], err)
				bs[0].failed++
			}
		}
	}
	for _, b := range bs {
		res.Attempted += w.ops
		res.Failed += b.failed
	}
	res.Correct = res.Failed == 0
	info.Batches = len(bs)
	info.FailedOps = res.Failed
	info.SimDigest = fmt.Sprintf("%x", bs[0].digest)
	return res, info, nil
}

// tracedRun spends half of cfg.seconds on plain batches and half on traced
// ones under the CPU profiler, so that the tracing overhead is measured
// inside the one process; then it runs the layer probes.
func tracedRun(w workload, in any, seeds []int64, cfg runConfig, tr *tracer) ([]batchStats, map[string]float64, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	plain, _ := timedBatches(w, in, seeds, cfg.seconds/2, 1, nil, nil)

	profPath := filepath.Join(cfg.out, "cpu-"+w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, fmt.Errorf("start CPU profile: %w", err)
	}
	traced, ls := timedBatches(w, in, seeds, cfg.seconds/2, 1, tr, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, nil, fmt.Errorf("write CPU profile: %w", err)
	}

	values := layerMetrics(w, traced, ls)
	wall := func(b batchStats) float64 { return b.wall }
	values["trace_overhead_frac"] = medianOf(traced, wall)/medianOf(plain, wall) - 1
	p := tr.begin("probes")
	reps := 3
	if cfg.smoke {
		reps = 1
	}
	runProbes(values, reps)
	tr.end(p)
	shares, err := cpuShares(profPath)
	if err != nil {
		// The shares are an extra: without them the run still stands.
		fmt.Fprintf(os.Stderr, "vhbench: warning: cpu_share.* and cpu_in.* not measured, printed as 0: %v\n", err)
	}
	for k, v := range shares {
		values[k] = v
	}
	if err := tr.write(filepath.Join(cfg.out, "trace-"+w.name+".json"), w.name); err != nil {
		return nil, nil, err
	}
	if traced[0].digest != plain[0].digest {
		fmt.Fprintf(os.Stderr, "vhbench: %s: traced sim_digest differs from the untraced one\n", w.name)
		traced[0].failed = len(seeds)
	}
	return append(traced, plain...), values, nil
}
