package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
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
