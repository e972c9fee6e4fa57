package workloads

import (
	"fmt"
	"sort"

	"vhadoop/internal/core"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
)

// TeraSort reproduces the three-step benchmark: TeraGen writes rows of
// random keys to HDFS, TeraSort sorts them with a total-order partitioner,
// TeraValidate checks global order. Rows are the canonical 100 bytes; the
// real record count is down-scaled while virtual sizes carry the full I/O
// volume.

// TeraOptions sizes one TeraSort run.
type TeraOptions struct {
	Bytes       float64 // total data volume (virtual)
	RealRows    int     // actual keys generated and sorted
	GenMaps     int     // TeraGen map tasks
	SortReduces int
	// Dir is the HDFS working directory (default "/tera"). Concurrent
	// TeraSort jobs in the job service get distinct directories.
	Dir string
}

// dir returns the configured working directory or the classic default.
func (o TeraOptions) dir() string {
	if o.Dir == "" {
		return "/tera"
	}
	return o.Dir
}

// DefaultTeraOptions scales the real row count with the data volume.
func DefaultTeraOptions(bytes float64) TeraOptions {
	rows := int(bytes / 1e6 * 4) // 4 real rows per virtual MB
	if rows < 64 {
		rows = 64
	}
	if rows > 20000 {
		rows = 20000
	}
	return TeraOptions{Bytes: bytes, RealRows: rows, GenMaps: 4, SortReduces: 4}
}

// TeraResult is one full TeraSort benchmark run.
type TeraResult struct {
	Options   TeraOptions
	GenTime   sim.Time
	SortTime  sim.Time
	Validated bool
	Rows      int
	Output    []mapreduce.KV // the globally sorted rows (key, payload)
}

const teraKeyLen = 10

// teraKey produces a random 10-character printable key, like gensort's.
func teraKey(rng interface{ Intn(int) int }) string {
	const alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	b := make([]byte, teraKeyLen)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// teraGenJob: each map generates its share of rows and writes them to HDFS
// (map-only, like Hadoop's TeraGen).
func teraGenJob(seed, output string, opts TeraOptions) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:    "teragen",
		Input:   []string{seed},
		Output:  output,
		NumMaps: opts.GenMaps,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key string, value any, emit mapreduce.Emit) {
				row := value.(teraRow)
				emit(row.key, row, row.bytes)
			})
		},
		Cost: mapreduce.CostModel{
			MapCPUPerByte: 2e-9, // generation is cheap: I/O bound
			TaskSetupCPU:  1.5,
		},
	}
}

// teraRow is one generated row: the sort key plus its 90-byte payload.
type teraRow struct {
	key     string
	payload string
	bytes   float64
}

// TeraGen runs the generation step: a seed file carrying the real rows is
// staged cheaply, then a map-only job writes the full-volume output through
// HDFS replication pipelines.
func TeraGen(p *sim.Proc, pl *core.Platform, output string, opts TeraOptions, subOpts ...mapreduce.SubmitOption) (sim.Time, error) {
	start := p.Now()
	rng := pl.Engine.Rand()
	perRow := opts.Bytes / float64(opts.RealRows)
	recs := make([]hdfs.Record, opts.RealRows)
	for i := range recs {
		row := teraRow{key: teraKey(rng), payload: fmt.Sprintf("row%07d", i), bytes: perRow}
		recs[i] = hdfs.Record{Key: row.key, Value: row, Size: 64} // seed rows are tiny
	}
	seed := output + ".seed"
	if _, err := pl.DFS.Write(p, pl.Master, seed, float64(len(recs)*64), recs); err != nil {
		return 0, err
	}
	h, err := pl.MR.Submit(p, teraGenJob(seed, output, opts), subOpts...)
	if err != nil {
		return 0, err
	}
	if _, err := h.Wait(p); err != nil {
		return 0, err
	}
	return p.Now() - start, nil
}

// samplePartitionBoundaries picks NumReduces-1 key boundaries from the
// generated rows, as TeraSort's input sampler does.
func samplePartitionBoundaries(rows []hdfs.Record, reduces int) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key
	}
	sort.Strings(keys)
	bounds := make([]string, reduces-1)
	for i := range bounds {
		bounds[i] = keys[(i+1)*len(keys)/reduces]
	}
	return bounds
}

// teraSortJob: identity map, total-order partition, identity reduce. The
// sorting itself happens in the framework's sort phase.
func teraSortJob(input, output string, reduces int, bounds []string) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:       "terasort",
		Input:      []string{input},
		Output:     output,
		NumReduces: reduces,
		Partition: func(key string, _ int) int {
			// Total-order partitioner: binary search the sampled boundaries.
			return sort.SearchStrings(bounds, key+"\x00")
		},
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(key string, value any, emit mapreduce.Emit) {
				row := value.(teraRow)
				emit(row.key, row, row.bytes)
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				for _, v := range values {
					row := v.(teraRow)
					emit(key, row.payload, row.bytes)
				}
			})
		},
		Cost: mapreduce.CostModel{
			MapCPUPerByte:    4e-9,
			SortCPUPerByte:   1.2e-8, // the heavy phase
			ReduceCPUPerByte: 4e-9,
			TaskSetupCPU:     1.5,
		},
	}
}

// RunTeraSort runs TeraGen + TeraSort + TeraValidate and reports the times
// of the two measured steps plus the validation verdict. Submission options
// pass through to both MapReduce jobs.
func RunTeraSort(p *sim.Proc, pl *core.Platform, opts TeraOptions, subOpts ...mapreduce.SubmitOption) (TeraResult, error) {
	res := TeraResult{Options: opts}
	data := fmt.Sprintf("%s/in-%.0f", opts.dir(), opts.Bytes)
	genTime, err := TeraGen(p, pl, data, opts, subOpts...)
	if err != nil {
		return res, fmt.Errorf("teragen: %w", err)
	}
	res.GenTime = genTime

	gen, err := pl.DFS.Lookup(data + ".seed")
	if err != nil {
		return res, err
	}
	bounds := samplePartitionBoundaries(gen.Records(), opts.SortReduces)

	start := p.Now()
	// TeraSort reads TeraGen's committed output files.
	var inputs []string
	for _, name := range pl.DFS.Files() {
		if len(name) > len(data) && name[:len(data)+1] == data+"/" {
			inputs = append(inputs, name)
		}
	}
	spec := teraSortJob(data, data+".sorted", opts.SortReduces, bounds)
	spec.Input = inputs
	h, err := pl.MR.Submit(p, spec, subOpts...)
	if err != nil {
		return res, fmt.Errorf("terasort: %w", err)
	}
	if _, err := h.Wait(p); err != nil {
		return res, fmt.Errorf("terasort: %w", err)
	}
	out := h.OutputRecords()
	res.SortTime = p.Now() - start
	res.Rows = len(out)
	res.Output = out

	// TeraValidate: the output partitions are concatenated in partition
	// order, so global sortedness is simply pairwise order.
	res.Validated = true
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			res.Validated = false
			return res, fmt.Errorf("teravalidate: row %d key %q < previous %q", i, out[i].Key, out[i-1].Key)
		}
	}
	return res, nil
}
