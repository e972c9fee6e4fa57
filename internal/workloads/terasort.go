package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

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

const (
	teraKeyLen   = 10
	teraAlphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	// teraPayloadDigits is the zero-padded width of the row number in a
	// payload ("row%07d"); rows from 10^7 on print all their digits.
	teraPayloadDigits = 7
)

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
				row := value.(*teraRow)
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
// Records carry *teraRow values pointing into one arena, so passing a row
// from record to emit to record never boxes or copies it.
type teraRow struct {
	key     string
	payload string
	bytes   float64
}

// teraPayload is a row as TeraSort outputs it: it prints as its payload
// under %v and %s, so the reducer re-emits the row pointer instead of
// boxing the payload string.
type teraPayload teraRow

// String returns the row's payload.
func (r *teraPayload) String() string { return r.payload }

// teraRows generates n rows of perRow virtual bytes each, as 64-byte seed
// records. Each key is teraKeyLen characters drawn from rng in row order,
// like gensort's; each payload is "row%07d" of the row number. Keys,
// payloads and rows each live in one backing allocation, so the
// allocation count does not grow with n.
func teraRows(rng *rand.Rand, n int, perRow float64) []hdfs.Record {
	keyBuf := make([]byte, n*teraKeyLen)
	for i := range keyBuf {
		keyBuf[i] = teraAlphabet[rng.Intn(len(teraAlphabet))]
	}
	keys := string(keyBuf)

	// Exact below 10^7 rows; longer row numbers only grow the buffer.
	payBuf := make([]byte, 0, n*teraPayloadLen(0))
	for i := 0; i < n; i++ {
		payBuf = appendTeraPayload(payBuf, i)
	}
	payloads := string(payBuf)

	rows := make([]teraRow, n)
	recs := make([]hdfs.Record, n)
	off := 0
	for i := range rows {
		end := off + teraPayloadLen(i)
		rows[i] = teraRow{
			key:     keys[i*teraKeyLen : (i+1)*teraKeyLen],
			payload: payloads[off:end],
			bytes:   perRow,
		}
		off = end
		recs[i] = hdfs.Record{Key: rows[i].key, Value: &rows[i], Size: 64} // seed rows are tiny
	}
	return recs
}

// appendTeraPayload appends row i's payload, fmt's "row%07d", to dst.
func appendTeraPayload(dst []byte, i int) []byte {
	dst = append(dst, "row"...)
	for d := decimalDigits(i); d < teraPayloadDigits; d++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

// teraPayloadLen is the length of row i's payload text.
func teraPayloadLen(i int) int {
	return len("row") + max(teraPayloadDigits, decimalDigits(i))
}

// decimalDigits counts the decimal digits of a non-negative i.
func decimalDigits(i int) int {
	d := 1
	for ; i >= 10; i /= 10 {
		d++
	}
	return d
}

// TeraGen runs the generation step: a seed file carrying the real rows is
// staged cheaply, then a map-only job writes the full-volume output through
// HDFS replication pipelines.
func TeraGen(p *sim.Proc, pl *core.Platform, output string, opts TeraOptions, subOpts ...mapreduce.SubmitOption) (sim.Time, error) {
	start := p.Now()
	recs := teraRows(pl.Engine.Rand(), opts.RealRows, opts.Bytes/float64(opts.RealRows))
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

// samplePartitionBoundaries picks reduces-1 key boundaries from the
// generated rows of f: boundary i is the key of rank (i+1)·n/reduces among
// all n generated keys. Hadoop's TeraSort sampler reads only a subset of
// its input; doing the same here would move the boundaries, and with them
// every partition, so it would change the model. Only reduces-1 order
// statistics are needed, so they are selected, not sorted: each rank is
// selected in the part of the copy its predecessor left unsettled.
func samplePartitionBoundaries(f *hdfs.File, reduces int) []string {
	keys := make([]string, 0, f.NumRecords())
	for _, b := range f.Blocks {
		for _, r := range b.Records {
			keys = append(keys, r.Key)
		}
	}
	bounds := make([]string, reduces-1)
	settled := 0 // keys[settled:] is unsettled: no rank selected so far lies in it
	for i := range bounds {
		k := (i + 1) * len(keys) / reduces
		if k >= settled { // otherwise k is the rank selected last, still in place
			selectRank(keys[settled:], k-settled)
			settled = k + 1
		}
		bounds[i] = keys[k]
	}
	return bounds
}

// selectRank reorders a so that a[k] is the key of rank k in sorted order,
// with no key before it greater and no key after it smaller. It is a
// quickselect: expected O(len(a)) comparisons, no allocation, and no
// randomness, so the engine's random stream is untouched. The pivot is the
// median of the first, middle and last keys, and the partition is
// three-way, so a run of equal keys leaves the range in one pass instead of
// making the selection quadratic.
func selectRank(a []string, k int) {
	for len(a) > 1 {
		pivot := medianOf3(a[0], a[len(a)/2], a[len(a)-1])
		// a[:lt] < pivot, a[lt:i] == pivot, a[gt:] > pivot.
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch c := strings.Compare(a[i], pivot); {
			case c < 0:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case c > 0:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k >= gt:
			a, k = a[gt:], k-gt
		default:
			return // a[k] equals the pivot
		}
	}
}

// medianOf3 returns the middle one of three keys.
func medianOf3(x, y, z string) string {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		return x
	}
	return y
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
				row := value.(*teraRow)
				emit(row.key, row, row.bytes)
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, emit mapreduce.Emit) {
				for _, v := range values {
					row := v.(*teraRow)
					emit(key, (*teraPayload)(row), row.bytes)
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
// pass through to both MapReduce jobs. Fewer than one reduce is an error,
// returned before anything is generated.
func RunTeraSort(p *sim.Proc, pl *core.Platform, opts TeraOptions, subOpts ...mapreduce.SubmitOption) (TeraResult, error) {
	res := TeraResult{Options: opts}
	if opts.SortReduces < 1 {
		return res, fmt.Errorf("terasort: SortReduces = %d, want at least 1", opts.SortReduces)
	}
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
	bounds := samplePartitionBoundaries(gen, opts.SortReduces)

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
