package hdfs

import (
	"fmt"
	"math"
	"testing"

	"vhadoop/internal/sim"
)

// referenceSplitRecords is the straightforward append-per-record block
// assignment splitRecords replaced. It stays as the oracle FuzzSplitRecords
// compares the contiguous-range version against.
func referenceSplitRecords(records []Record, size, blockSize float64) [][]Record {
	nBlocks := int(size / blockSize)
	if float64(nBlocks)*blockSize < size {
		nBlocks++
	}
	if nBlocks == 0 {
		nBlocks = 1
	}
	groups := make([][]Record, nBlocks)
	cum := 0.0
	for _, r := range records {
		idx := int(cum / blockSize)
		if idx >= nBlocks {
			idx = nBlocks - 1
		}
		groups[idx] = append(groups[idx], r)
		cum += r.Size
	}
	return groups
}

// requireAppendSafe appends a sentinel to every group and fails if that
// changed any group or the records they were cut from: groups sharing one
// backing array must be cap-limited so an append reallocates instead of
// overwriting the neighbouring group.
func requireAppendSafe(t *testing.T, records []Record, groups [][]Record) {
	t.Helper()
	before := make([][]Record, len(groups))
	for i, g := range groups {
		before[i] = append([]Record(nil), g...)
	}
	recsBefore := append([]Record(nil), records...)
	for _, g := range groups {
		_ = append(g, Record{Key: "sentinel"})
	}
	for i, g := range groups {
		for j := range g {
			if g[j] != before[i][j] {
				t.Fatalf("appending to a group clobbered group %d record %d", i, j)
			}
		}
	}
	for i := range records {
		if records[i] != recsBefore[i] {
			t.Fatalf("appending to a group clobbered input record %d", i)
		}
	}
}

func FuzzSplitRecords(f *testing.F) {
	f.Add([]byte(nil), byte(4), byte(8))
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, byte(40), byte(16))
	f.Add([]byte{0, 0, 16, 0, 3}, byte(1), byte(1))
	f.Add([]byte{255, 1, 0, 255}, byte(0), byte(200))
	f.Fuzz(func(t *testing.T, data []byte, sizeRaw, blockRaw byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		// Record sizes in eighths of a block, zero included, so records land
		// exactly on block boundaries and empty blocks appear.
		blockSize := float64(int(blockRaw)+1) * 1e6
		records := make([]Record, len(data))
		for i, b := range data {
			records[i] = Record{Key: fmt.Sprintf("r%d", i), Value: i, Size: float64(b%32) * blockSize / 8}
		}
		// The file size is independent of the records' sum: HDFS clamps
		// overflow into the last block.
		size := float64(sizeRaw) * blockSize / 4

		got := splitRecords(records, size, blockSize)
		want := referenceSplitRecords(records, size, blockSize)
		if len(got) != len(want) {
			t.Fatalf("got %d groups, want %d", len(got), len(want))
		}
		for i := range want {
			if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
				t.Fatalf("group %d holds %d records (nil %v), want %d (nil %v)",
					i, len(got[i]), got[i] == nil, len(want[i]), want[i] == nil)
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("group %d record %d = %v, want %v", i, j, got[i][j], want[i][j])
				}
			}
		}
		requireAppendSafe(t, records, got)
	})
}

// TestWriteRejectsBadRecordSizes checks Write refuses record sizes no
// block can hold — before any traffic, and without panicking.
func TestWriteRejectsBadRecordSizes(t *testing.T) {
	for _, size := range []float64{-1e9, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			tb := newTestbed(1, 1, 3, DefaultConfig())
			recs := mkRecords(4, 1e6)
			recs[2].Size = size
			var err error
			tb.engine.Spawn("writer", func(p *sim.Proc) {
				_, err = tb.cluster.Write(p, tb.vms[1], "/bad", 10e6, recs)
			})
			end := tb.engine.Run()
			if err == nil {
				t.Fatalf("write with record size %v succeeded, want an error", size)
			}
			if tb.cluster.Exists("/bad") {
				t.Fatal("rejected write left a file behind")
			}
			if end != 0 {
				t.Fatalf("rejected write ran until %v, want no traffic", end)
			}
		})
	}
}
