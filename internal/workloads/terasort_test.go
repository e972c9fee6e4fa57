package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"vhadoop/internal/hdfs"
)

// TestTeraRowsAllocsConstant pins teraRows to a fixed handful of
// allocations — one backing array each for keys, payloads, rows and
// records, plus the two string conversions — however many rows it makes.
// A per-row allocation (boxing a row, formatting a payload, minting a key)
// would make the count grow with n.
func TestTeraRowsAllocsConstant(t *testing.T) {
	const want = 6
	for _, n := range []int{64, 4000, 20000} {
		rng := rand.New(rand.NewSource(1))
		if got := testing.AllocsPerRun(5, func() { teraRows(rng, n, 1e4) }); got != want {
			t.Errorf("teraRows(n=%d): %v allocs, want %d", n, got, want)
		}
	}
}

// TestTeraRowsContent checks the generated rows: keys drawn from the
// alphabet one rng.Intn per character in row order, payloads numbered like
// fmt's "row%07d", and record values pointing at the rows.
func TestTeraRowsContent(t *testing.T) {
	const n = 300
	recs := teraRows(rand.New(rand.NewSource(7)), n, 2.5)
	rng := rand.New(rand.NewSource(7))
	for i, r := range recs {
		key := make([]byte, teraKeyLen)
		for j := range key {
			key[j] = teraAlphabet[rng.Intn(len(teraAlphabet))]
		}
		row := r.Value.(*teraRow)
		if r.Key != string(key) || row.key != r.Key {
			t.Fatalf("row %d key = %q (record %q), want %q", i, row.key, r.Key, key)
		}
		if want := fmt.Sprintf("row%07d", i); row.payload != want {
			t.Fatalf("row %d payload = %q, want %q", i, row.payload, want)
		}
		if row.bytes != 2.5 || r.Size != 64 {
			t.Fatalf("row %d sizes = %v virtual, %v seed; want 2.5, 64", i, row.bytes, r.Size)
		}
	}
}

// TestTeraPayloadFormat covers row numbers too large to generate in a test,
// where "row%07d" stops padding.
func TestTeraPayloadFormat(t *testing.T) {
	for _, i := range []int{0, 9, 10, 999999, 1000000, 9999999, 10000000, 123456789} {
		got := string(appendTeraPayload(nil, i))
		if want := fmt.Sprintf("row%07d", i); got != want || len(got) != teraPayloadLen(i) {
			t.Errorf("payload %d = %q (len %d by teraPayloadLen), want %q", i, got, teraPayloadLen(i), want)
		}
	}
}

// TestTeraSortCallbacksZeroAllocs gates TeraSort's per-record callbacks:
// the total-order partitioner and the identity reducer allocate nothing.
// The reducer re-emits each row as a *teraPayload, which prints as the
// row's payload.
func TestTeraSortCallbacksZeroAllocs(t *testing.T) {
	recs := teraRows(rand.New(rand.NewSource(3)), 64, 1e4)
	bounds := []string{recs[0].Key, recs[1].Key, recs[2].Key}
	sort.Strings(bounds)
	spec := teraSortJob("in", "out", len(bounds)+1, bounds)
	key := recs[5].Key
	if n := testing.AllocsPerRun(100, func() { spec.Partition(key, len(bounds)+1) }); n != 0 {
		t.Errorf("partitioner: %v allocs per call, want 0", n)
	}

	values := make([]any, len(recs))
	for i, r := range recs {
		values[i] = r.Value
	}
	var out []any
	red := spec.NewReducer()
	red.Reduce(key, values, func(_ string, v any, _ float64) { out = append(out, v) })
	for i, v := range out {
		if got, want := fmt.Sprint(v), values[i].(*teraRow).payload; got != want {
			t.Fatalf("output %d prints %q, want payload %q", i, got, want)
		}
	}
	discard := func(string, any, float64) {}
	if n := testing.AllocsPerRun(100, func() { red.Reduce(key, values, discard) }); n != 0 {
		t.Errorf("reducer: %v allocs per call of %d values, want 0", n, len(values))
	}
}

// recordFile wraps records in a file of up to three blocks, as a written
// seed file holds them.
func recordFile(recs []hdfs.Record) *hdfs.File {
	n := len(recs)
	return &hdfs.File{Blocks: []*hdfs.Block{
		{Records: recs[:n/3]}, {Records: recs[n/3 : 2*n/3]}, {Records: recs[2*n/3:]},
	}}
}

// fuzzKeys holds every string of one to three letters over "abc", in
// sorted order, so fuzzKey maps sorted bytes to sorted keys. Some keys are
// prefixes of others.
var fuzzKeys = func() []string {
	var keys []string
	var grow func(prefix string)
	grow = func(prefix string) {
		for _, c := range "abc" {
			key := prefix + string(c)
			keys = append(keys, key)
			if len(key) < 3 {
				grow(key)
			}
		}
	}
	grow("")
	return keys
}()

// fuzzKey maps b to one of the first distinct keys of fuzzKeys,
// preserving order.
func fuzzKey(b byte, distinct int) string {
	return fuzzKeys[int(b)*distinct/256]
}

// FuzzPartitionBoundaries checks the selected boundaries against the
// quantiles of a full sort. Each byte is one key from a set of 1 to 39
// distinct keys, so keys repeat heavily. reduces runs from 1 to 2n+1:
// above n+1 some boundaries share a rank.
func FuzzPartitionBoundaries(f *testing.F) {
	ramp := make([]byte, 2000)
	for i := range ramp {
		ramp[i] = byte(i * 256 / len(ramp))
	}
	random := make([]byte, 4000)
	rand.New(rand.NewSource(1)).Read(random)
	reversed := slices.Clone(ramp)
	slices.Reverse(reversed)
	f.Add([]byte{9}, uint8(38), uint16(1))
	f.Add([]byte{3, 1, 2}, uint8(38), uint16(6))                 // 7 reduces over 3 keys
	f.Add(bytes.Repeat([]byte{200}, 3000), uint8(38), uint16(3)) // all equal
	f.Add(random, uint8(0), uint16(4))                           // one distinct key: all equal
	f.Add(ramp, uint8(38), uint16(3))                            // already sorted
	f.Add(reversed, uint8(38), uint16(4))                        // reverse sorted
	f.Add(random, uint8(2), uint16(3))
	f.Add(random, uint8(38), uint16(3)) // 4 reduces, as vhbench's terasort
	f.Add(random, uint8(38), uint16(4))
	f.Add(random[:64], uint8(38), uint16(30))
	f.Fuzz(func(t *testing.T, data []byte, distinct uint8, reduces uint16) {
		n := len(data)
		if n == 0 {
			return
		}
		nKeys := 1 + int(distinct)%len(fuzzKeys)
		r := 1 + int(reduces)%(2*n+1)
		recs := make([]hdfs.Record, n)
		sorted := make([]string, n)
		for i, b := range data {
			recs[i] = hdfs.Record{Key: fuzzKey(b, nKeys)}
			sorted[i] = recs[i].Key
		}
		sort.Strings(sorted)

		got := samplePartitionBoundaries(recordFile(recs), r)
		if len(got) != r-1 {
			t.Fatalf("n=%d reduces=%d: %d boundaries, want %d", n, r, len(got), r-1)
		}
		for i, b := range got {
			if want := sorted[(i+1)*n/r]; b != want {
				t.Fatalf("n=%d reduces=%d: boundary %d = %q, want %q", n, r, i, b, want)
			}
		}
		for i, b := range data {
			if recs[i].Key != fuzzKey(b, nKeys) {
				t.Fatalf("record %d key changed to %q", i, recs[i].Key)
			}
		}
	})
}

// TestSamplePartitionBoundariesAllocs pins the sampler to two allocations,
// the key copy and the boundaries, at every size: the selection itself
// works in place.
func TestSamplePartitionBoundariesAllocs(t *testing.T) {
	const want = 2
	// A process's first collection allocates its background mark workers.
	// Run it now, so that the copies made below cannot set it off.
	runtime.GC()
	for _, n := range []int{64, 4000, 20000} {
		f := recordFile(teraRows(rand.New(rand.NewSource(1)), n, 1e4))
		if got := testing.AllocsPerRun(5, func() { samplePartitionBoundaries(f, 4) }); got != want {
			t.Errorf("samplePartitionBoundaries(n=%d): %v allocs, want %d", n, got, want)
		}
	}
}
