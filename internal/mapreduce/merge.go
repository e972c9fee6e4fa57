package mapreduce

import (
	"cmp"
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

// recordScratch is one Cluster's reusable record-path memory: the mapper's
// emit with the map output it collects in emit order (each record's
// partition, and each partition's size), combineGroups' groups, per-record
// group ids and group index, the combiner and reducer emit with the output
// it collects, the index permutation of sortKVs and combineGroups, a
// reduce's merged input and the values slice of combineGroups and
// reduceSorted. Only mapOutput and reduceOutput use it, through the
// combineGroups, sortKVs, mergeRuns and reduceSorted calls they make.
// Neither takes a *sim.Proc, so neither can block, and procs switch only
// at blocking calls: no two tasks ever hold the scratch at once. Nothing
// they return points into it, and they clear the records and keys they
// left in it, so it keeps no record alive past its task.
type recordScratch struct {
	emit       Emit     // emitMap, bound once by bind, so emitting allocates nothing
	cfg        *JobSpec // the job of the map emitting, nil between maps
	emitted    []KV
	part       []int
	sizes      []float64 // the emitting map's partition sizes, nil between maps
	groups     []group
	groupOf    []int
	groupIndex map[groupKey]int
	collect    Emit // collectKV, bound once by bind
	combined   []KV // the combiner or reducer output being collected
	perm       []int
	merged     []KV
	values     []any
}

// bind binds s's emits, on first use of s.
func (s *recordScratch) bind() {
	if s.emit == nil {
		s.emit, s.collect = s.emitMap, s.collectKV
	}
}

// emitMap is the mapper's emit: it appends a record and its partition to
// the map output and adds its size to its partition's.
func (s *recordScratch) emitMap(key string, value any, size float64) {
	idx := 0
	if s.cfg.NumReduces > 0 {
		idx = s.cfg.Partition(key, s.cfg.NumReduces)
	}
	s.emitted = append(s.emitted, KV{Key: key, Value: value, Size: size})
	s.part = append(s.part, idx)
	s.sizes[idx] += size
}

// collectKV is the combiner's and reducer's emit: it appends a record to
// s.combined.
func (s *recordScratch) collectKV(key string, value any, size float64) {
	s.combined = append(s.combined, KV{Key: key, Value: value, Size: size})
}

// linearGroups is how many distinct groups combineGroups finds by a linear
// scan before it indexes them in a map. Timed alone, the scan breaks even
// with the map at 6 to 8 groups for 256 records and at about 8 to 10 for
// 64, and wins by a quarter at 3. K-means maps hold at most k groups, and
// Wordcount maps about 170, which take the map.
const linearGroups = 8

// groupKey names one (partition, key) group of a combining map's output.
type groupKey struct {
	key  string
	part int
}

// group is one group of a combining map's output.
type group struct {
	groupKey
	n   int // records in the group
	end int // end of the group's values in recordScratch.values, once laid out
}

// combineGroups folds recs, a map's output in emit order with part[i] the
// partition of recs[i], through a fresh combiner per partition, and
// returns each partition's combiner output with its size summed into
// sizes, which holds one entry per partition. One pass gives each record
// the id of its (partition, key) group, only the distinct groups are
// sorted, and each group's values are laid out in emit order. So every
// combiner sees, in key order, exactly the (key, values) calls a stable
// sort of its partition followed by a walk over its key groups would make.
// Each group's values are cap-limited, so a combiner that appends to them
// cannot overwrite the next group's; like reduceSorted's, they are scratch
// that combiners must not retain past the call.
func combineGroups(recs []KV, part []int, sizes []float64, newCombiner func() Reducer, s *recordScratch) [][]KV {
	groups := s.groups[:0]
	groupOf := slices.Grow(s.groupOf[:0], len(recs))[:len(recs)]
	indexed := 0
	for i, kv := range recs {
		k := groupKey{kv.Key, part[i]}
		g, found := 0, false
		if len(groups) <= linearGroups {
			for j := range groups {
				if groups[j].groupKey == k {
					g, found = j, true
					break
				}
			}
		} else {
			g, found = s.groupIndex[k]
		}
		if !found {
			g = len(groups)
			groups = append(groups, group{groupKey: k})
			if len(groups) > linearGroups {
				if s.groupIndex == nil {
					s.groupIndex = make(map[groupKey]int)
				}
				for ; indexed < len(groups); indexed++ {
					s.groupIndex[groups[indexed].groupKey] = indexed
				}
			}
		}
		groups[g].n++
		groupOf[i] = g
	}

	order := slices.Grow(s.perm[:0], len(groups))[:len(groups)]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(groups[a].part, groups[b].part); c != 0 {
			return c
		}
		return strings.Compare(groups[a].key, groups[b].key)
	})
	// Each group's end starts as its start and, as its values are laid
	// out, moves to its end.
	off := 0
	for _, g := range order {
		groups[g].end = off
		off += groups[g].n
	}
	values := slices.Grow(s.values[:0], len(recs))[:len(recs)]
	for i, kv := range recs {
		g := &groups[groupOf[i]]
		values[g.end] = kv.Value
		g.end++
	}

	parts := make([][]KV, len(sizes))
	next := 0
	for i := range parts {
		first := next
		for next < len(order) && groups[order[next]].part == i {
			next++
		}
		// Room for one record per key group, as reduceSorted's output.
		s.combined = make([]KV, 0, next-first)
		red := newCombiner()
		for _, g := range order[first:next] {
			lo, hi := groups[g].end-groups[g].n, groups[g].end
			red.Reduce(groups[g].key, values[lo:hi:hi], s.collect)
		}
		parts[i] = s.combined
		sizes[i] = 0
		for _, kv := range parts[i] {
			sizes[i] += kv.Size
		}
	}
	s.combined = nil

	if len(groups) > linearGroups {
		clear(s.groupIndex)
	}
	clear(groups)
	clear(values)
	s.groups, s.groupOf, s.perm, s.values = groups[:0], groupOf[:0], order[:0], values[:0]
	return parts
}

// sortKVs orders records by key (stable, so equal keys keep their current
// order). Rather than stable-sorting the 40-byte records directly (rotation
// moves dominate) or through sort.SliceStable (reflect swapper dominates),
// it pattern-defeating-quicksorts an index permutation, held in s, with the
// original position as tie-break — stability for 8-byte swaps — then
// applies the permutation in place, one cycle at a time.
func sortKVs(kvs []KV, s *recordScratch) {
	if len(kvs) < 2 || sortedByKey(kvs) {
		return
	}
	s.perm = slices.Grow(s.perm[:0], len(kvs))[:len(kvs)]
	perm := s.perm
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := strings.Compare(kvs[a].Key, kvs[b].Key); c != 0 {
			return c
		}
		return a - b
	})
	// Position i takes the record at perm[i]. Following each cycle moves
	// every record once; perm[j] = j marks position j filled.
	for i := range perm {
		if perm[i] == i {
			continue
		}
		first, j := kvs[i], i
		for perm[j] != i {
			next := perm[j]
			kvs[j], perm[j] = kvs[next], j
			j = next
		}
		kvs[j], perm[j] = first, j
	}
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

// mergeRuns merges key-sorted runs into one key-sorted slice, which is
// s.merged when two or more runs hold records. Ties across runs resolve to
// the earliest run (stable), and records within a run keep their order, so
// merging runs in fetch order reproduces exactly the ordering of a stable
// sort over their concatenation.
func mergeRuns(runs [][]KV, s *recordScratch) []KV {
	// Drop empty runs; they only slow the heap down.
	live := runs[:0:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
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
	out := slices.Grow(s.merged[:0], total)
	if len(live) == 2 {
		s.merged = merge2(out, live[0], live[1])
		return s.merged
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
	s.merged = out
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
// returns the emitted records. A first pass counts the groups and the
// largest one: the output starts with room for one record per group, and
// s.values, the values slice passed to each Reduce call, with room for the
// largest group. It is scratch reused across groups and calls (Hadoop's
// iterator semantics): reducers must not retain it past the call.
func reduceSorted(kvs []KV, red Reducer, s *recordScratch) []KV {
	groups, largest := 0, 0
	for i := 0; i < len(kvs); {
		end := groupEnd(kvs, i)
		groups++
		largest = max(largest, end-i)
		i = end
	}
	s.bind()
	s.combined = make([]KV, 0, groups)
	values := slices.Grow(s.values[:0], largest)
	for i := 0; i < len(kvs); {
		end := groupEnd(kvs, i)
		values = values[:0]
		for _, kv := range kvs[i:end] {
			values = append(values, kv.Value)
		}
		red.Reduce(kvs[i].Key, values, s.collect)
		i = end
	}
	clear(values[:largest])
	s.values = values[:0]
	out := s.combined
	s.combined = nil
	return out
}

// groupEnd returns the end of the key group of sorted kvs that starts at i.
func groupEnd(kvs []KV, i int) int {
	end := i + 1
	for end < len(kvs) && kvs[end].Key == kvs[i].Key {
		end++
	}
	return end
}
