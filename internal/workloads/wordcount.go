// Package workloads implements the four MapReduce benchmarks of the paper's
// Table I — Wordcount, MRBench, TeraSort (TeraGen/TeraSort/TeraValidate) and
// TestDFSIO — as real jobs for the vHadoop platform. Each workload processes
// real records (actual words, actual sortable keys) while the virtual sizes
// attached to those records drive the simulated I/O, network and CPU costs.
package workloads

import (
	"strings"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// WordcountCost is the calibrated cost model for Wordcount: Java-era
// tokenising plus hash updates run at roughly 10 MB/s per 2.4 GHz core on a
// 1-VCPU Xen guest; sorting and reducing are cheaper per byte.
func WordcountCost() mapreduce.CostModel {
	return mapreduce.CostModel{
		MapCPUPerByte:       1e-7,
		SortCPUPerByte:      5e-9,
		ReduceCPUPerByte:    1e-8,
		CombineCPUPerRecord: 1e-6,
		TaskSetupCPU:        1.5,
	}
}

// WordcountJob builds the canonical Wordcount job: mappers tokenise lines
// and emit (word, 1); reducers sum. A combiner pre-aggregates map-side.
func WordcountJob(input, output string, reduces int, combiner bool) mapreduce.JobSpec {
	cfg := mapreduce.JobSpec{
		Name:       "wordcount",
		Input:      []string{input},
		Output:     output,
		NumReduces: reduces,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(_ string, value any, emit mapreduce.Emit) {
				line := value.(datasets.Line)
				n := countWords(line.Text)
				if n == 0 {
					return
				}
				// Hadoop's wordcount map output is ~1.7x the input volume
				// (Text word + IntWritable per token); each real token
				// carries its share.
				per := line.Bytes / float64(n) * 1.7
				eachWord(line.Text, func(w string) { emit(w, 1, per) })
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
		// The combiner keeps the count semantics but its output volume per
		// distinct word shrinks to one record's worth.
		Cost: WordcountCost(),
	}
	if combiner {
		cfg.NewCombiner = cfg.NewReducer
	}
	return cfg
}

// asciiSpace mirrors strings.Fields' ASCII space set.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// countWords returns the number of space-separated words in s: the count
// strings.Fields would produce, without building the slice. Non-ASCII input
// falls back to strings.Fields for exact Unicode semantics.
func countWords(s string) int {
	n := 0
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return len(strings.Fields(s))
		}
		if asciiSpace[c] {
			inWord = false
		} else if !inWord {
			inWord = true
			n++
		}
	}
	return n
}

// eachWord calls fn for every space-separated word of s. Words are
// substrings sharing s's storage, so tokenising a line allocates neither the
// []string strings.Fields builds nor any byte copies. Falls back to
// strings.Fields for non-ASCII input to keep Unicode semantics.
func eachWord(s string, fn func(string)) {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			for _, w := range strings.Fields(s) {
				fn(w)
			}
			return
		}
	}
	i := 0
	for i < len(s) {
		for i < len(s) && asciiSpace[s[i]] {
			i++
		}
		start := i
		for i < len(s) && !asciiSpace[s[i]] {
			i++
		}
		if i > start {
			fn(s[start:i])
		}
	}
}

// WordcountResult is one Wordcount benchmark run.
type WordcountResult struct {
	InputBytes float64
	Stats      mapreduce.JobStats
	Counts     map[string]int
}

// RunWordcount generates a corpus of the given virtual size, loads it into
// HDFS from the master and runs Wordcount over it, returning the job stats
// and the real word counts. Submission options (tenant, priority, deadline)
// pass through to the cluster.
func RunWordcount(p *sim.Proc, pl *core.Platform, inputName string, sizeBytes float64, reduces int, combiner bool, opts ...mapreduce.SubmitOption) (WordcountResult, error) {
	res := WordcountResult{InputBytes: sizeBytes}
	if !pl.DFS.Exists(inputName) {
		recs := datasets.Text(pl.Engine.Rand(), datasets.DefaultTextOptions(sizeBytes))
		if _, err := pl.LoadText(p, inputName, sizeBytes, recs); err != nil {
			return res, err
		}
	}
	h, err := pl.MR.Submit(p, WordcountJob(inputName, "", reduces, combiner), opts...)
	if err != nil {
		return res, err
	}
	stats, err := h.Wait(p)
	if err != nil {
		return res, err
	}
	out := h.OutputRecords()
	res.Stats = stats
	res.Counts = make(map[string]int, len(out))
	for _, kv := range out {
		res.Counts[kv.Key] = kv.Value.(int)
	}
	return res, nil
}
