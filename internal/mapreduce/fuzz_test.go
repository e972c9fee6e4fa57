package mapreduce

import (
	"fmt"
	"sort"
	"testing"

	"vhadoop/internal/hdfs"
)

// The fuzzers below attack the pure data-plane transforms whose
// invariants the whole shuffle rests on:
//
//   - mergeRuns/merge2: merging key-sorted runs must be byte-identical
//     to a stable sort over their concatenation (ties to the earliest
//     run, within-run order preserved);
//   - makeSplits: cutting blocks into map inputs must conserve every
//     byte and every record, in order, no matter how awkward the block
//     sizes or map count, and hand each split exactly the records the
//     append-based reference assigns it;
//   - mapOutput: the emit buffer, exact-size scatter and combine must
//     give the partitions and sizes of per-partition append.
//
// Both decode raw fuzz bytes into structured inputs with a tiny key
// alphabet, so the fuzzer hits key collisions (the tie-break paths)
// constantly instead of almost never.

// decodeRuns turns fuzz bytes into numRuns key-sorted runs. Each input
// byte becomes one record; the key is drawn from an 8-letter alphabet
// to force cross-run ties, and the Value carries the record's global
// arrival index so stability violations are observable.
func decodeRuns(data []byte, numRuns int) [][]KV {
	runs := make([][]KV, numRuns)
	for i, b := range data {
		r := int(b>>3) % numRuns
		runs[r] = append(runs[r], KV{
			Key:   string(rune('a' + b%8)),
			Value: i,
			Size:  1,
		})
	}
	var scratch recordScratch
	for _, run := range runs {
		sortKVs(run, &scratch)
	}
	return runs
}

func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte(nil), byte(2))
	f.Add([]byte("the quick brown fox"), byte(3))
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 7, 15}, byte(4))
	f.Add([]byte{255, 255, 255, 0, 0, 0}, byte(1))
	f.Add([]byte("aaaaaaaabbbbbbbb"), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, numRunsRaw byte) {
		numRuns := int(numRunsRaw)%8 + 1
		runs := decodeRuns(data, numRuns)

		// Reference: stable sort over the concatenation of the sorted
		// runs in run order. mergeRuns documents byte-identical output.
		var want []KV
		for _, run := range runs {
			want = append(want, run...)
		}
		want = append([]KV(nil), want...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })

		got := mergeRuns(runs, new(recordScratch))
		if len(got) != len(want) {
			t.Fatalf("mergeRuns returned %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
				t.Fatalf("record %d: got {%s %v}, want {%s %v} (tie-break or ordering bug)",
					i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	})
}

func FuzzSortKVs(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("zyxwvut"))
	f.Add([]byte("aabbaabb"))
	f.Add([]byte{1, 1, 1, 1, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs := make([]KV, len(data))
		for i, b := range data {
			kvs[i] = KV{Key: string(rune('a' + b%4)), Value: i, Size: 1}
		}
		want := append([]KV(nil), kvs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })

		sortKVs(kvs, new(recordScratch))
		for i := range kvs {
			if kvs[i].Key != want[i].Key || kvs[i].Value != want[i].Value {
				t.Fatalf("record %d: got {%s %v}, want {%s %v} (sortKVs must be stable)",
					i, kvs[i].Key, kvs[i].Value, want[i].Key, want[i].Value)
			}
		}
	})
}

// decodeBlocks turns fuzz bytes into HDFS blocks: each byte yields one
// block whose size is derived from its high bits and whose records
// (0-3 of them, one possibly zero-sized) split the block's bytes.
func decodeBlocks(data []byte) []*hdfs.Block {
	var blocks []*hdfs.Block
	recID := 0
	for i, b := range data {
		size := float64(int(b>>2)+1) * 1e5
		nrec := int(b % 4)
		blk := &hdfs.Block{ID: i + 1, Index: i, Size: size}
		for r := 0; r < nrec; r++ {
			recID++
			rsz := size / float64(nrec)
			if r == 0 && b%8 >= 4 {
				rsz = 0 // zero-size record: boundary landmine
			}
			blk.Records = append(blk.Records, hdfs.Record{
				Key:  fmt.Sprintf("r%d", recID),
				Size: rsz,
			})
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// referenceSplitRecords is the append-per-record assignment makeSplits
// used before splits became contiguous sub-slices: with numMaps > 0, each
// record goes to the split its cumulative byte position falls in.
func referenceSplitRecords(blocks []*hdfs.Block, numMaps int) [][]KV {
	if numMaps <= 0 {
		out := make([][]KV, len(blocks))
		for i, b := range blocks {
			out[i] = b.Records
		}
		return out
	}
	var total float64
	var records []KV
	for _, b := range blocks {
		total += b.Size
		records = append(records, b.Records...)
	}
	per := total / float64(numMaps)
	out := make([][]KV, numMaps)
	cum := 0.0
	for _, r := range records {
		idx := int(cum / per)
		if idx >= numMaps {
			idx = numMaps - 1
		}
		out[idx] = append(out[idx], r)
		cum += r.Size
	}
	return out
}

func FuzzMakeSplits(f *testing.F) {
	f.Add([]byte(nil), byte(0))
	f.Add([]byte{10, 20, 30}, byte(0))
	f.Add([]byte{255}, byte(7))
	f.Add([]byte{4, 5, 6, 7}, byte(19))
	f.Add([]byte{100, 100, 100, 100, 100}, byte(3))
	// One block holds every record: splits are sub-slices of its Records.
	f.Add([]byte{207}, byte(5))
	f.Add([]byte{4, 7, 8}, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, numMapsRaw byte) {
		if len(data) > 32 {
			data = data[:32]
		}
		blocks := decodeBlocks(data)
		if len(blocks) == 0 {
			return
		}
		numMaps := int(numMapsRaw) % 24 // 0 = one split per block

		var wantBytes float64
		var wantRecs []string
		for _, b := range blocks {
			wantBytes += b.Size
			for _, r := range b.Records {
				wantRecs = append(wantRecs, r.Key)
			}
		}

		splits := makeSplits(blocks, numMaps)

		wantSplits := numMaps
		if numMaps == 0 {
			wantSplits = len(blocks)
		}
		if len(splits) != wantSplits {
			t.Fatalf("got %d splits, want %d", len(splits), wantSplits)
		}

		var gotBytes float64
		var gotRecs []string
		for i, s := range splits {
			for _, part := range s.parts {
				if part.bytes < 0 {
					t.Fatalf("split %d carries a negative byte range %v", i, part.bytes)
				}
				gotBytes += part.bytes
			}
			for _, r := range s.records {
				gotRecs = append(gotRecs, r.Key)
			}
		}
		if diff := gotBytes - wantBytes; diff > 1 || diff < -1 {
			t.Fatalf("splits cover %v bytes, blocks hold %v (lost or invented bytes)", gotBytes, wantBytes)
		}
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("splits carry %d records, blocks hold %d (lost or duplicated records)", len(gotRecs), len(wantRecs))
		}
		// Records must keep their global order: split i's records all
		// precede split i+1's, and within a split they stay in block order.
		for i := range gotRecs {
			if gotRecs[i] != wantRecs[i] {
				t.Fatalf("record %d: got %s, want %s (split reordered records)", i, gotRecs[i], wantRecs[i])
			}
		}

		ref := referenceSplitRecords(blocks, numMaps)
		for i, s := range splits {
			if len(s.records) != len(ref[i]) {
				t.Fatalf("split %d carries %d records, reference assigns %d", i, len(s.records), len(ref[i]))
			}
			for j := range ref[i] {
				if s.records[j] != ref[i][j] {
					t.Fatalf("split %d record %d = %s, reference has %s", i, j, s.records[j].Key, ref[i][j].Key)
				}
			}
		}
		// Appending to one split's records must reallocate, never overwrite
		// the next split's records in a shared backing array, nor a block's
		// own records.
		for i, s := range splits {
			_ = append(s.records, KV{Key: "sentinel"})
			for k := i + 1; k < len(splits); k++ {
				for j, r := range splits[k].records {
					if r != ref[k][j] {
						t.Fatalf("appending to split %d clobbered split %d record %d", i, k, j)
					}
				}
			}
		}
		n := 0
		for _, b := range blocks {
			for _, r := range b.Records {
				if r.Key != wantRecs[n] {
					t.Fatalf("splitting overwrote block record %d: %s, want %s", n, r.Key, wantRecs[n])
				}
				n++
			}
		}
	})
}

// referenceMapOutput is the map side mapOutput replaced: each emitted
// record appended to its partition's own slice with its size summed in
// emit order, then each partition combined (a stable sort, then one
// combiner call per key group) and stable-sorted for the spill.
func referenceMapOutput(spec *JobSpec, recs []KV) ([][]KV, []float64) {
	nParts := max(spec.NumReduces, 1)
	parts := make([][]KV, nParts)
	sizes := make([]float64, nParts)
	emit := func(key string, value any, size float64) {
		idx := 0
		if spec.NumReduces > 0 {
			idx = spec.Partition(key, spec.NumReduces)
		}
		parts[idx] = append(parts[idx], KV{Key: key, Value: value, Size: size})
		sizes[idx] += size
	}
	m := spec.NewMapper()
	for _, r := range recs {
		m.Map(r.Key, r.Value, emit)
	}
	if spec.NumReduces == 0 {
		return parts, sizes
	}
	for i, part := range parts {
		sort.SliceStable(part, func(a, b int) bool { return part[a].Key < part[b].Key })
		if spec.NewCombiner == nil {
			continue
		}
		var out []KV
		for lo := 0; lo < len(part); {
			hi := lo + 1
			for hi < len(part) && part[hi].Key == part[lo].Key {
				hi++
			}
			var values []any
			for _, kv := range part[lo:hi] {
				values = append(values, kv.Value)
			}
			spec.NewCombiner().Reduce(part[lo].Key, values, func(key string, value any, size float64) {
				out = append(out, KV{Key: key, Value: value, Size: size})
			})
			lo = hi
		}
		sizes[i] = 0
		for _, kv := range out {
			sizes[i] += kv.Size
		}
		parts[i] = out
	}
	return parts, sizes
}

// mapOutputKeys are FuzzMapOutput's 40 keys: "" and, for each of 13
// letters l, l, l+"b" and l+"bb", so keys share prefixes ("a" < "ab" <
// "abb") and one partition can hold more keys than combineGroups scans
// linearly.
var mapOutputKeys = func() []string {
	keys := []string{""}
	for l := 'a'; l < 'a'+13; l++ {
		keys = append(keys, string(l), string(l)+"b", string(l)+"bb")
	}
	return keys
}()

// FuzzMapOutput checks mapOutput against referenceMapOutput. Each input
// byte is one record, from which the mapper emits zero to two records keyed
// from mapOutputKeys, sized 0 to 4. The job has 0 to 7 reduces, a hash
// partitioner or one that sends everything to the last reduce, and
// optionally a combiner that folds its values, in order, into one string
// and then appends to them, so a reordered value or a group whose values
// are not cap-limited changes its output. Every case runs twice on one
// Cluster, so the second run reuses the scratch the first one grew.
func FuzzMapOutput(f *testing.F) {
	f.Add([]byte(nil), byte(0), false, false)
	f.Add([]byte("the quick brown fox"), byte(0), false, false)
	f.Add([]byte("the quick brown fox"), byte(1), false, false)
	f.Add([]byte("the quick brown fox"), byte(4), false, false)
	f.Add([]byte("the quick brown fox"), byte(4), true, false)
	f.Add([]byte("aaaaaaaabbbbbbbb"), byte(3), false, true)
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 7, 15}, byte(7), true, true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog 0123456789"), byte(2), true, true)
	f.Fuzz(func(t *testing.T, data []byte, numReducesRaw byte, oneReduce, combine bool) {
		if len(data) > 64 {
			data = data[:64]
		}
		recs := make([]KV, len(data))
		for i, b := range data {
			recs[i] = KV{Key: fmt.Sprint(i), Value: b}
		}
		spec := JobSpec{
			NumReduces: int(numReducesRaw) % 8,
			Partition:  defaultPartition,
			NewMapper: func() Mapper {
				return MapperFunc(func(key string, value any, emit Emit) {
					b := value.(byte)
					for j := 0; j < int(b%3); j++ {
						emit(mapOutputKeys[(int(b)+j)%len(mapOutputKeys)], int(b)*2+j, float64((int(b)+j)%5))
					}
				})
			},
		}
		if oneReduce {
			spec.Partition = func(_ string, n int) int { return n - 1 }
		}
		if combine {
			spec.NewCombiner = func() Reducer {
				return ReducerFunc(func(key string, values []any, emit Emit) {
					emit(key, fmt.Sprint(values...), float64(len(values)))
					_ = append(values, -1)
				})
			}
		}
		wantParts, wantSizes := referenceMapOutput(&spec, recs)
		c := &Cluster{}
		for run := 0; run < 2; run++ {
			parts, sizes, _ := c.mapOutput(&spec, recs)
			if len(parts) != len(wantParts) {
				t.Fatalf("run %d: %d partitions, want %d", run, len(parts), len(wantParts))
			}
			for i := range wantParts {
				if sizes[i] != wantSizes[i] {
					t.Fatalf("run %d: partition %d holds %v bytes, want %v", run, i, sizes[i], wantSizes[i])
				}
				if len(parts[i]) != len(wantParts[i]) {
					t.Fatalf("run %d: partition %d has %d records, want %d", run, i, len(parts[i]), len(wantParts[i]))
				}
				// Uncombined partitions share one backing array, so each
				// must be cap-limited to its own records.
				if !combine && cap(parts[i]) != len(parts[i]) {
					t.Fatalf("run %d: partition %d has cap %d beyond its %d records", run, i, cap(parts[i]), len(parts[i]))
				}
				for j, kv := range wantParts[i] {
					if parts[i][j] != kv {
						t.Fatalf("run %d: partition %d record %d = %v, want %v", run, i, j, parts[i][j], kv)
					}
				}
			}
		}
	})
}
