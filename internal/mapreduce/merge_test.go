package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vhadoop/internal/datasets"
)

// referenceSortKVs is a plain stable sort by key over the full shuffled
// set — the record order the reduce-side k-way merge must reproduce
// record-for-record.
func referenceSortKVs(kvs []KV) {
	sort.SliceStable(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
}

// makeRuns builds nRuns sorted runs of perRun records with keys drawn from a
// small vocabulary (lots of cross-run duplicates, like a real shuffle). The
// Value records the producing run and position so tests can check stability.
func makeRuns(rng *rand.Rand, nRuns, perRun, vocab int) [][]KV {
	var scratch recordScratch
	runs := make([][]KV, nRuns)
	for r := range runs {
		run := make([]KV, perRun)
		for i := range run {
			run[i] = KV{
				Key:   fmt.Sprintf("k%04d", rng.Intn(vocab)),
				Value: [2]int{r, i},
				Size:  24,
			}
		}
		sortKVs(run, &scratch)
		runs[r] = run
	}
	return runs
}

func flatten(runs [][]KV) []KV {
	var out []KV
	for _, r := range runs {
		out = append(out, r...)
	}
	return out
}

func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ runs, per, vocab int }{
		{1, 50, 10},
		{2, 40, 8},
		{3, 30, 5},
		{8, 100, 20},
		{16, 64, 3}, // heavy duplication across many runs
	} {
		runs := makeRuns(rng, tc.runs, tc.per, tc.vocab)
		want := flatten(runs)
		referenceSortKVs(want)
		got := mergeRuns(runs, new(recordScratch))
		if len(got) != len(want) {
			t.Fatalf("%d runs: merged %d records, want %d", tc.runs, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
				t.Fatalf("%d runs: record %d = %v/%v, want %v/%v (stability broken)",
					tc.runs, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestMergeRunsEmptyAndNil(t *testing.T) {
	if got := mergeRuns(nil, new(recordScratch)); len(got) != 0 {
		t.Fatalf("merge of no runs = %d records", len(got))
	}
	if got := mergeRuns([][]KV{{}, nil, {}}, new(recordScratch)); len(got) != 0 {
		t.Fatalf("merge of empty runs = %d records", len(got))
	}
	run := []KV{{Key: "a"}, {Key: "b"}}
	got := mergeRuns([][]KV{nil, run, {}}, new(recordScratch))
	if len(got) != 2 || got[0].Key != "a" {
		t.Fatalf("single live run mishandled: %v", got)
	}
}

func TestSortKVsStableAndSortedFastPath(t *testing.T) {
	var scratch recordScratch
	kvs := []KV{{Key: "a", Value: 1}, {Key: "a", Value: 2}, {Key: "b", Value: 3}}
	sortKVs(kvs, &scratch)
	if kvs[0].Value != 1 || kvs[1].Value != 2 {
		t.Fatal("sortKVs reordered already-sorted equal keys")
	}
	kvs = []KV{{Key: "b", Value: 1}, {Key: "a", Value: 2}, {Key: "a", Value: 3}, {Key: "a", Value: 4}}
	if sortedByKey(kvs) {
		t.Fatal("unsorted input reported sorted")
	}
	sortKVs(kvs, &scratch)
	if kvs[0].Key != "a" || kvs[0].Value != 2 || kvs[1].Value != 3 || kvs[2].Value != 4 || kvs[3].Key != "b" {
		t.Fatalf("sortKVs unstable or wrong: %v", kvs)
	}
}

func TestDefaultPartitionMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "hello", "k0042", "the quick brown fox", "\x00\xff"}
	for _, key := range keys {
		for _, n := range []int{1, 3, 7, 16} {
			h := fnv.New32a()
			h.Write([]byte(key))
			want := int(h.Sum32() % uint32(n))
			if got := defaultPartition(key, n); got != want {
				t.Fatalf("defaultPartition(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

func TestDefaultPartitionZeroAllocs(t *testing.T) {
	key := "some-intermediate-key-0042"
	allocs := testing.AllocsPerRun(1000, func() {
		if defaultPartition(key, 16) < 0 {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("defaultPartition allocates %v objects per call, want 0", allocs)
	}
}

// TestShuffleAllocsIndependentOfSize gates the record path: the map side's
// emit and scatter (with and without a combiner), the spill sort, the k-way
// and two-run merges and reduce grouping each allocate a fixed number of
// objects per call, however many records pass through. A per-record
// allocation (boxing, a slice grown by append, a fresh key) makes the count
// at 16n exceed the count at n. Each case reuses one scratch across calls,
// as a Cluster does. reduceSorted's output starts with room for one record
// per key group, so the identity reducer, over distinct keys as in
// TeraSort, never regrows it.
func TestShuffleAllocsIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	discard := ReducerFunc(func(string, []any, Emit) {})
	identity := ReducerFunc(func(key string, values []any, emit Emit) {
		for _, v := range values {
			emit(key, v, 24)
		}
	})
	first := ReducerFunc(func(key string, values []any, emit Emit) { emit(key, values[0], 24) })
	mapSpec := func(combiner Reducer) *JobSpec {
		spec := &JobSpec{
			NumReduces: 4,
			Partition:  defaultPartition,
			NewMapper: func() Mapper {
				return MapperFunc(func(key string, value any, emit Emit) { emit(key, value, 24) })
			},
		}
		if combiner != nil {
			spec.NewCombiner = func() Reducer { return combiner }
		}
		return spec
	}
	for _, tc := range []struct {
		name  string
		setup func(n int) func()
	}{
		{"mapOutput", func(n int) func() {
			recs := flatten(makeRuns(rng, 4, n/4, n/8))
			c, spec := &Cluster{}, mapSpec(nil)
			return func() { c.mapOutput(spec, recs) }
		}},
		{"mapOutput+combine", func(n int) func() {
			recs := flatten(makeRuns(rng, 4, n/4, n/8))
			c, spec := &Cluster{}, mapSpec(first)
			return func() { c.mapOutput(spec, recs) }
		}},
		{"sortKVs", func(n int) func() {
			src := flatten(makeRuns(rng, 4, n/4, n/8))
			kvs := make([]KV, len(src))
			var scratch recordScratch
			return func() { copy(kvs, src); sortKVs(kvs, &scratch) }
		}},
		{"mergeRuns", func(n int) func() {
			runs := makeRuns(rng, 5, n/5, n/8)
			var scratch recordScratch
			return func() { mergeRuns(runs, &scratch) }
		}},
		{"merge2", func(n int) func() {
			runs := makeRuns(rng, 2, n/2, n/8)
			out := make([]KV, 0, n)
			return func() { merge2(out, runs[0], runs[1]) }
		}},
		{"reduceSorted", func(n int) func() {
			kvs := mergeRuns(makeRuns(rng, 4, n/4, n/8), new(recordScratch))
			var scratch recordScratch
			return func() { reduceSorted(kvs, discard, &scratch) }
		}},
		{"reduceSorted/identity", func(n int) func() {
			kvs := make([]KV, n)
			for i := range kvs {
				kvs[i] = KV{Key: fmt.Sprintf("k%06d", i), Value: i, Size: 24}
			}
			var scratch recordScratch
			return func() { reduceSorted(kvs, identity, &scratch) }
		}},
	} {
		small := testing.AllocsPerRun(10, tc.setup(256))
		large := testing.AllocsPerRun(10, tc.setup(4096))
		if small != large {
			t.Errorf("%s: %v allocs per call at 256 records, %v at 4096; want equal", tc.name, small, large)
		}
	}
}

func TestReduceSortedReusesScratchSafely(t *testing.T) {
	// A reducer that (correctly) only reads values during the call.
	red := ReducerFunc(func(key string, values []any, emit Emit) {
		sum := 0
		for _, v := range values {
			sum += v.(int)
		}
		emit(key, sum, 8)
	})
	kvs := []KV{
		{Key: "a", Value: 1}, {Key: "a", Value: 2},
		{Key: "b", Value: 3},
		{Key: "c", Value: 4}, {Key: "c", Value: 5}, {Key: "c", Value: 6},
	}
	out := reduceSorted(kvs, red, new(recordScratch))
	want := map[string]int{"a": 3, "b": 3, "c": 15}
	if len(out) != 3 {
		t.Fatalf("groups = %d, want 3", len(out))
	}
	for _, kv := range out {
		if want[kv.Key] != kv.Value.(int) {
			t.Fatalf("%s = %v, want %d", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

// --- Micro-benchmarks ------------------------------------------------------

// BenchmarkReduceMerge measures the reduce-side k-way merge over
// pre-sorted runs at a typical shuffle shape (16 maps feeding one reducer).
func BenchmarkReduceMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	runs := makeRuns(rng, 16, 512, 200)
	var scratch recordScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mergeRuns(runs, &scratch); len(out) != 16*512 {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkSortKVs measures the map-side spill sort on one already-sorted
// run, so it times the O(n) sorted fast path that combiner output takes.
func BenchmarkSortKVs(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := flatten(makeRuns(rng, 1, 4096, 500))
	kvs := make([]KV, len(base))
	var scratch recordScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(kvs, base)
		sortKVs(kvs, &scratch)
	}
}

// partitionSink keeps the partitioner's result live in its benchmark.
var partitionSink int

// BenchmarkDefaultPartition measures the inlined FNV-1a partitioner, which
// must stay allocation-free.
func BenchmarkDefaultPartition(b *testing.B) {
	keys := make([]string, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = fmt.Sprintf("word%06d", rng.Intn(1e6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += defaultPartition(keys[i%len(keys)], 16)
	}
	partitionSink = s
}

// combiningJob returns n input records and a job whose mapper emits, for
// input record i, keys[i%len(keys)] with value i, and whose combiner is
// comb.
func combiningJob(keys []string, n, reduces int, comb Reducer) (*JobSpec, []KV) {
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Value: i, Size: 8}
	}
	return &JobSpec{
		NumReduces: reduces,
		Partition:  defaultPartition,
		NewMapper: func() Mapper {
			return MapperFunc(func(key string, value any, emit Emit) {
				emit(keys[value.(int)%len(keys)], value, 24)
			})
		},
		NewCombiner: func() Reducer { return comb },
	}, recs
}

// firstValue is a combiner that passes each key's first value through, so
// it allocates nothing of its own.
var firstValue = ReducerFunc(func(key string, values []any, emit Emit) { emit(key, values[0], 24) })

// TestCombiningMapOutputAllocs pins the allocations of one combining
// mapOutput on a warm Cluster, at the shape of a k-means iteration's map:
// 60 input records folded to 3 keys, here over 2 partitions. The 5 are the
// sizes, the mapper, the partition list and each partition's combiner
// output; the emits are bound once in the scratch.
func TestCombiningMapOutputAllocs(t *testing.T) {
	spec, recs := combiningJob([]string{"0", "1", "2"}, 60, 2, firstValue)
	c := &Cluster{}
	c.mapOutput(spec, recs) // grow the scratch
	if n := testing.AllocsPerRun(100, func() { c.mapOutput(spec, recs) }); n != 5 {
		t.Errorf("%v allocs per combining mapOutput, want 5", n)
	}
}

// BenchmarkCombiningMapOutput times one combining mapOutput on a warm
// Cluster at the two shapes the tree's combining maps take. "kmeans" is a
// k-means iteration's map: 60 records folded to 3 keys, one reduce.
// "wordcount" is a Wordcount map over 64 lines of the default corpus: 768
// words, 188 of them distinct, over 4 reduces, summed by the combiner.
func BenchmarkCombiningMapOutput(b *testing.B) {
	var words []string
	for _, r := range datasets.Text(rand.New(rand.NewSource(1)), datasets.DefaultTextOptions(64e6)) {
		words = append(words, strings.Fields(r.Value.(datasets.Line).Text)...)
	}
	sum := ReducerFunc(func(key string, values []any, emit Emit) {
		n := 0
		for _, v := range values {
			n += v.(int)
		}
		emit(key, n, 24)
	})
	for _, bc := range []struct {
		name       string
		keys       []string
		n, reduces int
		comb       Reducer
	}{
		{"kmeans", []string{"0", "1", "2"}, 60, 1, firstValue},
		{"wordcount", words, len(words), 4, sum},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec, recs := combiningJob(bc.keys, bc.n, bc.reduces, bc.comb)
			c := &Cluster{}
			c.mapOutput(spec, recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.mapOutput(spec, recs)
			}
		})
	}
}
