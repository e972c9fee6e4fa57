// Package maporder exercises the maporder analyzer: nondeterministic
// map iteration is flagged unless the loop body is provably
// order-insensitive.
package maporder

import (
	"maps"
	"slices"
	"sort"
	"strings"
)

// floatAccumulation is the classic violation: FP summation in map order.
func floatAccumulation(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "iteration order is nondeterministic"
		total += v
	}
	return total
}

// unsortedCollect appends map keys but never sorts them.
func unsortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m { // want "iteration order is nondeterministic"
		keys = append(keys, k)
	}
	return keys
}

// firstKey returns whichever key the runtime yields first.
func firstKey(m map[string]int) string {
	for k := range m { // want "iteration order is nondeterministic"
		return k
	}
	return ""
}

// tieBreakByOrder keeps the first maximal element it happens to visit.
func tieBreakByOrder(m map[string]int) string {
	best, bestN := "", -1
	for k, n := range m { // want "iteration order is nondeterministic"
		if n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// sortedCollect is the canonical fix: collect then sort.
func sortedCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// subSliceSort sorts only an empty prefix of the sink, so the keys
// stay in map-visit order.
func subSliceSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want "iteration order is nondeterministic"
		keys = append(keys, k)
	}
	sort.Strings(keys[:0])
	return keys
}

// fullSliceSort sorts the whole sink through a full slice expression.
func fullSliceSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys[:])
	return keys
}

// model shows the sorted-sink pattern through a struct field.
type model struct {
	labels []string
}

func (mo *model) fieldSink(m map[string]int) {
	mo.labels = mo.labels[:0]
	for l := range m {
		mo.labels = append(mo.labels, l)
	}
	sort.Strings(mo.labels)
}

// counting only accumulates integers: addition commutes, order is moot.
func counting(m map[string]int) (n, sum int) {
	for _, v := range m {
		n++
		sum += v
	}
	return n, sum
}

// distinctWrites hits a distinct slot of another map per iteration.
func distinctWrites(src map[string]int, dst map[string]int) {
	for k, v := range src {
		dst[k] = v * 2
	}
}

// keyedFloatSlot accumulates floats, but each slot sees exactly one
// update per sweep, so visit order cannot reorder any slot's sum.
func keyedFloatSlot(src map[string]float64, dst map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// drain deletes from the ranged map itself.
func drain(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// existence only returns constants.
func existence(m map[string]int) bool {
	for _, v := range m {
		if v > 10 {
			return true
		}
	}
	return false
}

// flagSet writes a constant boolean: idempotent under reordering.
func flagSet(m map[string]int) bool {
	saw := false
	for _, v := range m {
		if v < 0 {
			saw = true
		}
	}
	return saw
}

// sortLocalValue sorts a per-iteration local, which is fine, then sinks
// into a slice sorted after the loop by a comparator. The comparator
// ties on groups with the same first member, and tied runs keep
// map-visit order, so the sink is not order-free.
func sortLocalValue(groups map[int][]int) [][]int {
	var out [][]int
	for _, members := range groups { // want "iteration order"
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// printKeysUnsorted sorts map-ordered keys with a comparator. Only a
// total sort counts as a sorted sink: maporder cannot prove that a
// comparator never ties, and tied runs keep map-visit order.
func printKeysUnsorted(counts map[string]int) []string {
	var keys []string
	for k := range counts { // want "iteration order"
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sortFuncSink is the slices form of the same comparator sink.
func sortFuncSink(m map[string]int) []string {
	var keys []string
	for k := range m { // want "iteration order"
		keys = append(keys, k)
	}
	slices.SortFunc(keys, strings.Compare)
	return keys
}

// sortedKeysIter wraps the maps.Keys iterator in slices.Sorted.
func sortedKeysIter(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// sortedFuncKeysIter sorts the iterator with a comparator, which may tie.
func sortedFuncKeysIter(m map[string]int) []string {
	return slices.SortedFunc(maps.Keys(m), strings.Compare) // want "nondeterministic order"
}

// rawKeysIter consumes the iterator unsorted.
func rawKeysIter(m map[string]int) []string {
	return slices.Collect(maps.Keys(m)) // want "nondeterministic order"
}
