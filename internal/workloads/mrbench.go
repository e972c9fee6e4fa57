package workloads

import (
	"fmt"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// MRBenchOptions parametrises the MRBench small-job benchmark (Kim et al.,
// ICPADS 2008): it checks whether small jobs are responsive on the cluster.
// As in the paper's runs, the generated input grows with the number of map
// tasks (each map processes its own chunk of generated lines), so scaling
// maps also scales the concurrent shuffle traffic.
type MRBenchOptions struct {
	NumRuns     int
	Maps        int
	Reduces     int
	BytesPerMap float64
	LinesPerMap int
	// Input overrides the generated input's HDFS name (default derives
	// from the map/reduce shape, so equally-shaped runs share staging).
	Input string
}

// input returns the configured input name or the shape-derived default.
func (o MRBenchOptions) input() string {
	if o.Input == "" {
		return fmt.Sprintf("/mrbench/in-m%d-r%d", o.Maps, o.Reduces)
	}
	return o.Input
}

// DefaultMRBenchOptions mirrors the benchmark's defaults scaled to the
// testbed.
func DefaultMRBenchOptions() MRBenchOptions {
	return MRBenchOptions{NumRuns: 1, Maps: 2, Reduces: 1, BytesPerMap: 64e6, LinesPerMap: 128}
}

// MRBenchResult aggregates the runs.
type MRBenchResult struct {
	Options MRBenchOptions
	Times   []sim.Time
	AvgTime sim.Time
	Stats   []mapreduce.JobStats // one per run
}

// mrbenchJob: the real MRBench runs a trivial text job (identity map,
// pass-through reduce), so the shuffle carries the full input volume and the
// measurement target is framework overhead plus data movement.
func mrbenchJob(input string, run, maps, reduces int, bytesPerRecord float64) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:       fmt.Sprintf("mrbench-%d", run),
		Input:      []string{input},
		NumReduces: reduces,
		NumMaps:    maps,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key string, value any, emit mapreduce.Emit) {
				line := value.(datasets.Line)
				emit(line.Text, key, bytesPerRecord)
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				for _, v := range values {
					emit(key, v, float64(len(key))+16)
				}
			})
		},
		Cost: mapreduce.CostModel{
			MapCPUPerByte:    1e-8,
			SortCPUPerByte:   5e-9,
			ReduceCPUPerByte: 1e-8,
			TaskSetupCPU:     1.5,
		},
	}
}

// RunMRBench generates the input once, then runs the small job NumRuns times
// and reports each runtime plus the average — the number MRBench prints.
// Submission options pass through to every run's job.
func RunMRBench(p *sim.Proc, pl *core.Platform, opts MRBenchOptions, subOpts ...mapreduce.SubmitOption) (MRBenchResult, error) {
	res := MRBenchResult{Options: opts}
	input := opts.input()
	if !pl.DFS.Exists(input) {
		totalBytes := opts.BytesPerMap * float64(opts.Maps)
		textOpts := datasets.TextOptions{
			VirtualBytes:   totalBytes,
			RealLines:      opts.LinesPerMap * opts.Maps,
			WordsPerLine:   8,
			VocabularySize: 200,
			ZipfS:          1.2,
		}
		var recs []hdfs.Record = datasets.Text(pl.Engine.Rand(), textOpts)
		if _, err := pl.LoadText(p, input, totalBytes, recs); err != nil {
			return res, err
		}
	}
	bytesPerRecord := opts.BytesPerMap * float64(opts.Maps) / float64(opts.LinesPerMap*opts.Maps)
	for run := 0; run < opts.NumRuns; run++ {
		h, err := pl.MR.Submit(p, mrbenchJob(input, run, opts.Maps, opts.Reduces, bytesPerRecord), subOpts...)
		if err != nil {
			return res, err
		}
		stats, err := h.Wait(p)
		if err != nil {
			return res, err
		}
		res.Times = append(res.Times, stats.Runtime)
		res.AvgTime += stats.Runtime
		res.Stats = append(res.Stats, stats)
	}
	res.AvgTime /= sim.Time(len(res.Times))
	return res, nil
}
