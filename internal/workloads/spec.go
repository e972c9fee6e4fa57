package workloads

import (
	"fmt"
	"strconv"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// Spec is one self-describing workload instance behind a uniform surface:
// the job service (and any other multi-workload driver) enqueues, stages
// and runs wordcount, terasort, dfsio, mrbench and canopy through this
// interface without per-type switches.
type Spec interface {
	// Workload is the family name ("wordcount", "terasort", ...).
	Workload() string
	// Inputs lists the HDFS files the workload's first job reads — the
	// locality-placement signal. Empty when the workload generates its own
	// input in-band (TeraGen) or bypasses MapReduce entirely (DFSIO).
	Inputs() []string
	// Demand estimates the workload's peak (map, reduce) slot demand, the
	// fit test the scheduler's backfill pass uses.
	Demand() (maps, reduces int)
	// Bytes estimates the HDFS footprint the workload creates — the
	// admission controller's capacity signal.
	Bytes() float64
	// Stage idempotently prepares the workload's input data. The job
	// service stages at submission time, on the submitting proc, so
	// concurrently dispatched Runs never race over shared input files.
	Stage(p *sim.Proc, pl *core.Platform) error
	// Run stages any remaining input and executes the workload to
	// completion, forwarding opts (tenant, priority, deadline, output
	// collection) to every MapReduce submission it makes.
	Run(p *sim.Proc, pl *core.Platform, opts ...mapreduce.SubmitOption) (Result, error)
}

// Result is the uniform outcome of one workload run.
type Result struct {
	Workload string
	Elapsed  sim.Time
	// Stats carries the stats of the MapReduce jobs the workload ran,
	// where the workload surfaces them (DFSIO runs none).
	Stats []mapreduce.JobStats
	// Output is the workload's canonical output records — the byte-stable
	// serialization chaos and determinism suites compare.
	Output []mapreduce.KV
}

// WordcountSpec sizes one wordcount instance over a generated corpus.
type WordcountSpec struct {
	Input     string  // HDFS input file (staged on first use)
	SizeBytes float64 // virtual corpus volume
	Reduces   int
	Combiner  bool
	// RealLines overrides the generated corpus's real line count
	// (0: DefaultTextOptions scaling). Backlogs of thousands of small jobs
	// use a few lines each to keep real computation proportionate.
	RealLines int
}

// Workload implements Spec.
func (s WordcountSpec) Workload() string { return "wordcount" }

// Inputs implements Spec.
func (s WordcountSpec) Inputs() []string { return []string{s.Input} }

// Demand implements Spec: one map per 64 MB block plus the reduces.
func (s WordcountSpec) Demand() (int, int) { return int(s.SizeBytes/64e6) + 1, s.Reduces }

// Bytes implements Spec.
func (s WordcountSpec) Bytes() float64 { return s.SizeBytes }

// Stage implements Spec: generates and loads the corpus once.
func (s WordcountSpec) Stage(p *sim.Proc, pl *core.Platform) error {
	if pl.DFS.Exists(s.Input) {
		return nil
	}
	textOpts := datasets.DefaultTextOptions(s.SizeBytes)
	if s.RealLines > 0 {
		textOpts.RealLines = s.RealLines
	}
	recs := datasets.Text(pl.Engine.Rand(), textOpts)
	_, err := pl.LoadText(p, s.Input, s.SizeBytes, recs)
	return err
}

// Run implements Spec.
func (s WordcountSpec) Run(p *sim.Proc, pl *core.Platform, opts ...mapreduce.SubmitOption) (Result, error) {
	res := Result{Workload: s.Workload()}
	start := p.Now()
	if err := s.Stage(p, pl); err != nil {
		return res, err
	}
	h, err := pl.MR.Submit(p, WordcountJob(s.Input, "", s.Reduces, s.Combiner), opts...)
	if err != nil {
		return res, err
	}
	stats, err := h.Wait(p)
	if err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	res.Stats = []mapreduce.JobStats{stats}
	res.Output = h.OutputRecords()
	return res, nil
}

// TeraSortSpec wraps the TeraGen + TeraSort + TeraValidate pipeline.
type TeraSortSpec struct {
	Options TeraOptions
}

// Workload implements Spec.
func (s TeraSortSpec) Workload() string { return "terasort" }

// Inputs implements Spec: TeraGen creates its own input in-band.
func (s TeraSortSpec) Inputs() []string { return nil }

// Demand implements Spec.
func (s TeraSortSpec) Demand() (int, int) {
	maps := s.Options.GenMaps
	if maps == 0 {
		maps = 4
	}
	return maps, s.Options.SortReduces
}

// Bytes implements Spec: generated volume plus the sorted copy.
func (s TeraSortSpec) Bytes() float64 { return 2.2 * s.Options.Bytes }

// Stage implements Spec: generation is part of the measured pipeline.
func (s TeraSortSpec) Stage(p *sim.Proc, pl *core.Platform) error { return nil }

// Run implements Spec.
func (s TeraSortSpec) Run(p *sim.Proc, pl *core.Platform, opts ...mapreduce.SubmitOption) (Result, error) {
	res := Result{Workload: s.Workload()}
	start := p.Now()
	tr, err := RunTeraSort(p, pl, s.Options, opts...)
	if err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	res.Output = tr.Output
	return res, nil
}

// DFSIOSpec wraps the TestDFSIO write-then-read phase pair.
type DFSIOSpec struct {
	Options DFSIOOptions
}

// Workload implements Spec.
func (s DFSIOSpec) Workload() string { return "dfsio" }

// Inputs implements Spec: DFSIO bypasses MapReduce.
func (s DFSIOSpec) Inputs() []string { return nil }

// Demand implements Spec: no MapReduce slots.
func (s DFSIOSpec) Demand() (int, int) { return 0, 0 }

// Bytes implements Spec.
func (s DFSIOSpec) Bytes() float64 { return s.Options.FileBytes * float64(s.Options.Files) }

// Stage implements Spec: the write phase is the staging.
func (s DFSIOSpec) Stage(p *sim.Proc, pl *core.Platform) error { return nil }

// Run implements Spec: its canonical output is the two phase throughputs.
func (s DFSIOSpec) Run(p *sim.Proc, pl *core.Platform, _ ...mapreduce.SubmitOption) (Result, error) {
	res := Result{Workload: s.Workload()}
	start := p.Now()
	wr, err := RunDFSIOWrite(p, pl, s.Options)
	if err != nil {
		return res, err
	}
	rd, err := RunDFSIORead(p, pl, s.Options)
	if err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	res.Output = []mapreduce.KV{
		{Key: "write", Value: fmt.Sprintf("%.9g", wr.ThroughputMBps)},
		{Key: "read", Value: fmt.Sprintf("%.9g", rd.ThroughputMBps)},
	}
	return res, nil
}

// MRBenchSpec wraps the MRBench small-job responsiveness benchmark.
type MRBenchSpec struct {
	Options MRBenchOptions
}

// Workload implements Spec.
func (s MRBenchSpec) Workload() string { return "mrbench" }

// Inputs implements Spec.
func (s MRBenchSpec) Inputs() []string { return []string{s.Options.input()} }

// Demand implements Spec.
func (s MRBenchSpec) Demand() (int, int) { return s.Options.Maps, s.Options.Reduces }

// Bytes implements Spec.
func (s MRBenchSpec) Bytes() float64 { return s.Options.BytesPerMap * float64(s.Options.Maps) }

// Stage implements Spec: generates and loads the shaped input once.
func (s MRBenchSpec) Stage(p *sim.Proc, pl *core.Platform) error {
	input := s.Options.input()
	if pl.DFS.Exists(input) {
		return nil
	}
	totalBytes := s.Options.BytesPerMap * float64(s.Options.Maps)
	recs := datasets.Text(pl.Engine.Rand(), datasets.TextOptions{
		VirtualBytes:   totalBytes,
		RealLines:      s.Options.LinesPerMap * s.Options.Maps,
		WordsPerLine:   8,
		VocabularySize: 200,
		ZipfS:          1.2,
	})
	_, err := pl.LoadText(p, input, totalBytes, recs)
	return err
}

// Run implements Spec: its canonical output is the per-run runtimes.
func (s MRBenchSpec) Run(p *sim.Proc, pl *core.Platform, opts ...mapreduce.SubmitOption) (Result, error) {
	res := Result{Workload: s.Workload()}
	start := p.Now()
	if err := s.Stage(p, pl); err != nil {
		return res, err
	}
	mb, err := RunMRBench(p, pl, s.Options, opts...)
	if err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	res.Stats = mb.Stats
	res.Output = make([]mapreduce.KV, len(mb.Times))
	for i, t := range mb.Times {
		res.Output[i] = mapreduce.KV{
			Key:   fmt.Sprintf("run%03d", i),
			Value: strconv.FormatFloat(float64(t), 'g', -1, 64),
		}
	}
	return res, nil
}

// CanopySpec wraps Mahout-style canopy clustering over the control-chart
// dataset — the library workload of the mix.
type CanopySpec struct {
	Dir    string  // HDFS working path for the vectors
	T1, T2 float64 // canopy thresholds (0: the chaos-matrix defaults 80/55)
}

// Workload implements Spec.
func (s CanopySpec) Workload() string { return "canopy" }

// Inputs implements Spec.
func (s CanopySpec) Inputs() []string { return []string{s.Dir} }

// Demand implements Spec: the driver sizes maps to the worker count; two
// maps plus one reduce is the conservative fit estimate.
func (s CanopySpec) Demand() (int, int) { return 2, 1 }

// Bytes implements Spec: the control-chart vectors are small.
func (s CanopySpec) Bytes() float64 { return 2e6 }

// Stage implements Spec: vector loading needs the driver Run constructs.
func (s CanopySpec) Stage(p *sim.Proc, pl *core.Platform) error { return nil }

// Run implements Spec: its canonical output is the final canopy centers.
func (s CanopySpec) Run(p *sim.Proc, pl *core.Platform, opts ...mapreduce.SubmitOption) (Result, error) {
	res := Result{Workload: s.Workload()}
	t1, t2 := s.T1, s.T2
	if t1 == 0 {
		t1 = 80
	}
	if t2 == 0 {
		t2 = 55
	}
	start := p.Now()
	series := datasets.ControlChart(pl.Engine.Rand(), datasets.DefaultControlChartOptions())
	vectors := clustering.FromFloats(datasets.ControlVectors(series))
	d := clustering.NewDriver(pl, s.Dir)
	d.SubmitOpts = opts
	if err := d.Load(p, vectors); err != nil {
		return res, err
	}
	cr, err := clustering.CanopyMR(p, d, clustering.CanopyOptions{T1: t1, T2: t2})
	if err != nil {
		return res, err
	}
	res.Elapsed = p.Now() - start
	res.Stats = cr.JobStats
	res.Output = make([]mapreduce.KV, len(cr.Centers))
	for i, c := range cr.Centers {
		res.Output[i] = mapreduce.KV{Key: fmt.Sprintf("c%04d", i), Value: fmt.Sprintf("%.9g", []float64(c))}
	}
	return res, nil
}
