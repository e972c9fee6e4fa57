package mapreduce

import (
	"slices"
	"strings"
)

// This file is the shuffle data plane's sort/merge core. Map tasks sort each
// output partition once at spill time (where the engine charges the virtual
// sort CPU); reduce tasks then see one already-sorted run per map and combine
// them with a stable k-way merge instead of re-sorting the full record set.
// The merge pops equal keys from runs in arrival (fetch) order, so its output
// is byte-identical to what the previous stable full sort over the
// arrival-ordered concatenation produced — and deterministic, because the
// simulation's fetch order is deterministic under a fixed seed.

// sortKVs orders records by key (stable, so equal keys keep their current
// order). Rather than stable-sorting the 40-byte records directly (rotation
// moves dominate) or through sort.SliceStable (reflect swapper dominates),
// it pattern-defeating-quicksorts an index permutation with the original
// position as tie-break — stability for 8-byte swaps — then applies the
// permutation in one pass.
func sortKVs(kvs []KV) {
	if len(kvs) < 2 || sortedByKey(kvs) {
		return
	}
	idx := make([]int, len(kvs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := strings.Compare(kvs[a].Key, kvs[b].Key); c != 0 {
			return c
		}
		return a - b
	})
	out := make([]KV, len(kvs))
	for i, j := range idx {
		out[i] = kvs[j]
	}
	copy(kvs, out)
}

// sortedByKey reports whether kvs is already in non-decreasing key order —
// combiner output usually is, letting the spill skip its sort pass.
func sortedByKey(kvs []KV) bool {
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key < kvs[i-1].Key {
			return false
		}
	}
	return true
}

// mergeRuns merges key-sorted runs into one key-sorted slice. Ties across
// runs resolve to the earliest run (stable), and records within a run keep
// their order, so merging runs in fetch order reproduces exactly the
// ordering of a stable sort over their concatenation. total is the summed
// run length (a sizing hint; pass 0 to count here).
func mergeRuns(runs [][]KV, total int) []KV {
	// Drop empty runs; they only slow the heap down.
	live := runs[:0:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		// Single run: already sorted; hand it back without copying. Callers
		// treat merge output as read-only.
		return live[0]
	}
	if total == 0 {
		for _, r := range live {
			total += len(r)
		}
	}
	out := make([]KV, 0, total)
	if len(live) == 2 {
		return merge2(out, live[0], live[1])
	}

	// K-way merge over a binary min-heap of run heads. The heap stores run
	// indices; pos[i] is the cursor into live[i]. Comparison is by current
	// key, then run index, which keeps the merge stable across runs.
	pos := make([]int, len(live))
	heap := make([]int, len(live))
	for i := range heap {
		heap[i] = i
	}
	less := func(a, b int) bool {
		ka, kb := live[a][pos[a]].Key, live[b][pos[b]].Key
		if ka != kb {
			return ka < kb
		}
		return a < b
	}
	siftDown := func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			m := l
			if r := l + 1; r < n && less(heap[r], heap[l]) {
				m = r
			}
			if !less(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i, len(heap))
	}
	n := len(heap)
	for n > 0 {
		r := heap[0]
		out = append(out, live[r][pos[r]])
		pos[r]++
		if pos[r] == len(live[r]) {
			heap[0] = heap[n-1]
			n--
		}
		siftDown(0, n)
	}
	return out
}

// merge2 is the two-run special case: no heap, just a cursor race. Ties go
// to a (the earlier-fetched run), matching the k-way merge's tie-breaking.
func merge2(out, a, b []KV) []KV {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Key < a[i].Key {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// reduceSorted feeds each key group of the already-sorted kvs to red and
// returns the emitted records. The values slice passed to each Reduce call
// is scratch reused across groups (Hadoop's iterator semantics): reducers
// must not retain it past the call.
func reduceSorted(kvs []KV, red Reducer) []KV {
	var out []KV
	emit := func(key string, value any, size float64) {
		out = append(out, KV{Key: key, Value: value, Size: size})
	}
	// Sized to the worst case (one group holding every record) so the
	// per-group reslice below never regrows mid-stream.
	values := make([]any, 0, len(kvs))
	for i := 0; i < len(kvs); {
		end := i + 1
		for end < len(kvs) && kvs[end].Key == kvs[i].Key {
			end++
		}
		values = values[:0]
		for _, kv := range kvs[i:end] {
			values = append(values, kv.Value)
		}
		red.Reduce(kvs[i].Key, values, emit)
		i = end
	}
	return out
}
