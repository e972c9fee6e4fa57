package workloads

import (
	"fmt"
	"math/rand"
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
