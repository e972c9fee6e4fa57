package obs

import (
	"sort"

	"vhadoop/internal/sim"
)

// Label is one metric dimension.
type Label struct {
	Key, Value string
}

// MetricType distinguishes the three instrument families.
type MetricType string

// The registry's instrument families.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// metric is the shared identity of one registered instrument.
type metric struct {
	name   string
	labels []Label // sorted by key
	key    string  // canonical "name{k=v,...}" lookup/sort key
	typ    MetricType

	// instrument state (one of, per typ)
	value   float64 // counter and gauge
	buckets []float64
	counts  []uint64 // len(buckets)+1, last is +Inf
	sum     float64
	count   uint64
}

// Counter is a monotonically increasing total.
type Counter metric

// Gauge is a value that can move both ways.
type Gauge metric

// Histogram counts observations into fixed buckets (cumulative-le
// semantics at export time, like Prometheus: a value lands in the first
// bucket whose upper bound is >= the value).
type Histogram metric

// Registry holds every instrument of one platform and exports
// deterministic snapshots. It is simulator-driven, single-threaded
// code: a lookup that hits an existing instrument builds its key into a
// reused buffer and probes one map, allocating nothing, so callers may
// resolve instruments where they use them.
type Registry struct {
	now        func() sim.Time
	byKey      map[string]*metric
	order      []*metric // registration order; snapshots re-sort by key
	firsts     []*metric // first instrument of each name, scanned on a miss
	collectors []func()  // refresh hooks run before each snapshot
	scratch    []byte    // key buffer reused by every lookup
}

// NewRegistry creates a registry whose snapshots are stamped by now
// (typically Engine.Now). A nil now stamps snapshots with zero.
func NewRegistry(now func() sim.Time) *Registry {
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &Registry{now: now, byKey: make(map[string]*metric)}
}

// stackPairs is how many label pairs byKeyOrder sorts without a heap
// allocation, more than any platform instrument carries.
const stackPairs = 8

// byKeyOrder appends to order the pair indexes of kv (alternating
// key/value strings) sorted by key. The insertion sort is stable, so
// duplicate keys keep their call-site order.
func byKeyOrder(order []int, kv []string) []int {
	for p := 0; p < len(kv)/2; p++ {
		i := len(order)
		order = append(order, p)
		for ; i > 0 && kv[2*order[i-1]] > kv[2*p]; i-- {
			order[i] = order[i-1]
		}
		order[i] = p
	}
	return order
}

// appendKey appends the canonical "name{k=v,...}" key of name and the
// alternating key/value pairs kv to dst, labels sorted by key; with no
// labels the key is the bare name. It is the one key builder: registry
// lookups, Snapshot.Value and DecodeSnapshot all use it.
func appendKey(dst []byte, name string, kv []string) []byte {
	dst = append(dst, name...)
	if len(kv) == 0 {
		return dst
	}
	var stack [stackPairs]int
	dst = append(dst, '{')
	for i, p := range byKeyOrder(stack[:0], kv) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, kv[2*p]...)
		dst = append(dst, '=')
		dst = append(dst, kv[2*p+1]...)
	}
	return append(dst, '}')
}

// lookup returns the instrument for (name, labels), creating it with
// typ on first use. One name maps to one instrument family, as in
// Prometheus, so asking for a registered name as another type panics.
// A hit allocates nothing; panic messages format no slices, so kv stays
// on the caller's stack.
func (r *Registry) lookup(typ MetricType, name string, kv []string) *metric {
	if len(kv)%2 != 0 {
		panic("obs: metric " + name + ": odd label list")
	}
	r.scratch = appendKey(r.scratch[:0], name, kv)
	if m, ok := r.byKey[string(r.scratch)]; ok {
		if m.typ != typ {
			panic("obs: metric " + m.key + " registered as " + string(m.typ) + ", requested as " + string(typ))
		}
		return m
	}
	first := r.first(name)
	if first != nil && first.typ != typ {
		panic("obs: metric " + name + " registered as " + string(first.typ) + ", requested as " + string(typ))
	}
	var labels []Label
	if len(kv) > 0 {
		var stack [stackPairs]int
		labels = make([]Label, 0, len(kv)/2)
		for _, p := range byKeyOrder(stack[:0], kv) {
			labels = append(labels, Label{Key: kv[2*p], Value: kv[2*p+1]})
		}
	}
	m := &metric{name: name, labels: labels, key: string(r.scratch), typ: typ}
	r.byKey[m.key] = m
	r.order = append(r.order, m)
	if first == nil {
		r.firsts = append(r.firsts, m)
	}
	return m
}

// first returns the first instrument registered under name, or nil. A
// platform registers a few dozen names, so a scan on the rare miss
// costs less than keeping a second map per registry.
func (r *Registry) first(name string) *metric {
	for _, m := range r.firsts {
		if m.name == name {
			return m
		}
	}
	return nil
}

// Counter returns (registering on first use) the counter for
// (name, labels). Labels are alternating key/value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return (*Counter)(r.lookup(TypeCounter, name, labels))
}

// Gauge returns (registering on first use) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return (*Gauge)(r.lookup(TypeGauge, name, labels))
}

// Histogram returns (registering on first use) the histogram for
// (name, labels) with the given ascending bucket upper bounds. A second
// registration must pass identical buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + ": bucket bounds not ascending")
		}
	}
	m := r.lookup(TypeHistogram, name, labels)
	if m.counts == nil {
		m.buckets = append([]float64(nil), buckets...)
		m.counts = make([]uint64, len(buckets)+1)
	} else if len(m.buckets) != len(buckets) {
		panic("obs: histogram " + name + " re-registered with different buckets")
	} else {
		for i := range buckets {
			if m.buckets[i] != buckets[i] {
				panic("obs: histogram " + name + " re-registered with different buckets")
			}
		}
	}
	return (*Histogram)(m)
}

// OnCollect registers a refresh hook run (in registration order) before
// every snapshot — the idiom for gauges derived from live state, like
// per-link byte totals or the namenode's under-replicated block count.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Add increases the counter. Negative and NaN deltas panic: a counter
// that can shrink is a gauge, and a shrinking or NaN "total" would
// poison rate rules.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if !(v >= 0) {
		panic("obs: counter " + c.key + ": negative or NaN add")
	}
	c.value += v
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.value = v
}

// Observe records one value: it lands in the first bucket whose upper
// bound is >= v, or the implicit +Inf bucket beyond the last bound.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	h.counts[idx]++
	h.sum += v
	h.count++
}
