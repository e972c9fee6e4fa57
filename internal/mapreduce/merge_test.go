package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
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
		sortKVs(run)
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
		got := mergeRuns(runs, 0)
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
	if got := mergeRuns(nil, 0); len(got) != 0 {
		t.Fatalf("merge of no runs = %d records", len(got))
	}
	if got := mergeRuns([][]KV{{}, nil, {}}, 0); len(got) != 0 {
		t.Fatalf("merge of empty runs = %d records", len(got))
	}
	run := []KV{{Key: "a"}, {Key: "b"}}
	got := mergeRuns([][]KV{nil, run, {}}, 0)
	if len(got) != 2 || got[0].Key != "a" {
		t.Fatalf("single live run mishandled: %v", got)
	}
}

func TestSortKVsStableAndSortedFastPath(t *testing.T) {
	kvs := []KV{{Key: "a", Value: 1}, {Key: "a", Value: 2}, {Key: "b", Value: 3}}
	sortKVs(kvs)
	if kvs[0].Value != 1 || kvs[1].Value != 2 {
		t.Fatal("sortKVs reordered already-sorted equal keys")
	}
	kvs = []KV{{Key: "b", Value: 1}, {Key: "a", Value: 2}, {Key: "a", Value: 3}, {Key: "a", Value: 4}}
	if sortedByKey(kvs) {
		t.Fatal("unsorted input reported sorted")
	}
	sortKVs(kvs)
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

// TestShuffleAllocsIndependentOfSize gates the shuffle core: the spill
// sort, the k-way and two-run merges and reduce grouping each allocate a
// fixed number of objects per call, however many records pass through. A
// per-record allocation (boxing, a slice grown by append, a fresh key) makes
// the count at 16n exceed the count at n. The reducer emits nothing: an
// emitting reducer grows reduceSorted's output by doubling, which is allowed.
func TestShuffleAllocsIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	discard := ReducerFunc(func(string, []any, Emit) {})
	for _, tc := range []struct {
		name  string
		setup func(n int) func()
	}{
		{"sortKVs", func(n int) func() {
			src := flatten(makeRuns(rng, 4, n/4, n/8))
			kvs := make([]KV, len(src))
			return func() { copy(kvs, src); sortKVs(kvs) }
		}},
		{"mergeRuns", func(n int) func() {
			runs := makeRuns(rng, 5, n/5, n/8)
			return func() { mergeRuns(runs, 0) }
		}},
		{"merge2", func(n int) func() {
			runs := makeRuns(rng, 2, n/2, n/8)
			out := make([]KV, 0, n)
			return func() { merge2(out, runs[0], runs[1]) }
		}},
		{"reduceSorted", func(n int) func() {
			kvs := mergeRuns(makeRuns(rng, 4, n/4, n/8), 0)
			return func() { reduceSorted(kvs, discard) }
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
	out := reduceSorted(kvs, red)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mergeRuns(runs, 0); len(out) != 16*512 {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkSortKVs measures the map-side spill sort on one already-sorted
// run, so it times the O(n) sorted fast path that combiner output takes.
func BenchmarkSortKVs(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := flatten(makeRuns(rng, 1, 4096, 500))
	scratch := make([]KV, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		sortKVs(scratch)
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
