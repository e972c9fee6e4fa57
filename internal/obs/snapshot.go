package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vhadoop/internal/sim"
)

// Bucket is one exported histogram bucket (cumulative count of
// observations <= Le).
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Metric is one exported instrument.
type Metric struct {
	Name    string     `json:"name"`
	Type    MetricType `json:"type"`
	Labels  []Label    `json:"labels,omitempty"`
	Value   float64    `json:"value,omitempty"`
	Buckets []Bucket   `json:"buckets,omitempty"` // histograms: cumulative
	Sum     float64    `json:"sum,omitempty"`     // histograms
	Count   uint64     `json:"count,omitempty"`   // histograms

	key string // canonical sort/lookup key, not exported
}

// Label reports the value of one label key ("" when absent).
func (m Metric) Label(key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Snapshot is one deterministic export of a registry: metrics sorted by
// canonical key, stamped with the virtual time of the export. It is also
// the typed, read-only face of the registry: what the MapReduce Tuner
// (and any rule engine, chart, or test) consumes instead of poking
// Monitor internals. A Snapshot is a value — decisions made from it are
// reproducible from the snapshot alone, whether just taken or decoded
// from a file.
type Snapshot struct {
	At      sim.Time `json:"at"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot runs the collect hooks, then exports every instrument in
// canonical (name, labels) order. Safe on a nil registry (empty
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	for _, fn := range r.collectors {
		fn()
	}
	out := Snapshot{At: r.now(), Metrics: make([]Metric, 0, len(r.order))}
	for _, m := range r.order {
		em := Metric{Name: m.name, Type: m.typ, Labels: m.labels, key: m.key}
		switch m.typ {
		case TypeHistogram:
			cum := uint64(0)
			em.Buckets = make([]Bucket, 0, len(m.counts))
			for i, c := range m.counts {
				cum += c
				le := sim.Forever
				if i < len(m.buckets) {
					le = m.buckets[i]
				}
				em.Buckets = append(em.Buckets, Bucket{Le: le, Count: cum})
			}
			em.Sum = m.sum
			em.Count = m.count
		default:
			em.Value = m.value
		}
		out.Metrics = append(out.Metrics, em)
	}
	sort.Slice(out.Metrics, func(i, j int) bool { return out.Metrics[i].key < out.Metrics[j].key })
	return out
}

// Value returns the value of the metric with exactly these labels
// (alternating key/value strings); ok is false when absent. For
// histograms the value is the observation count.
func (s Snapshot) Value(name string, labels ...string) (float64, bool) {
	key := string(appendKey(nil, name, labels))
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].key >= key })
	if i < len(s.Metrics) && s.Metrics[i].key == key {
		if s.Metrics[i].Type == TypeHistogram {
			return float64(s.Metrics[i].Count), true
		}
		return s.Metrics[i].Value, true
	}
	return 0, false
}

// Total sums the values (histograms: counts) of every label set
// registered under name.
func (s Snapshot) Total(name string) float64 {
	var sum float64
	for _, m := range s.Series(name) {
		if m.Type == TypeHistogram {
			sum += float64(m.Count)
		} else {
			sum += m.Value
		}
	}
	return sum
}

// Series returns every metric registered under name, in canonical
// label order.
func (s Snapshot) Series(name string) []Metric {
	var out []Metric
	for _, m := range s.Metrics {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// formatFloat renders values the same way everywhere: shortest
// round-trip representation, so exports are byte-stable.
func formatFloat(v float64) string {
	if v >= sim.Forever {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promReplacer escapes a label value for the Prometheus text format. Its
// old strings are single bytes, so it returns a value with nothing to
// escape, the common case, as is and without allocating.
var promReplacer = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promEscape escapes a label value for the Prometheus text format.
func promEscape(s string) string { return promReplacer.Replace(s) }

// promName renders "name{k="v",...}" with extra labels appended (the
// histogram le), or the plain name when there are no labels at all.
func promName(name string, labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l.Key, promEscape(l.Value))
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one # TYPE header per metric name, samples in canonical
// order, histograms as cumulative _bucket/_sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, m := range s.Metrics {
		if m.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
				return err
			}
			lastName = m.Name
		}
		var err error
		switch m.Type {
		case TypeHistogram:
			for _, b := range m.Buckets {
				if _, err = fmt.Fprintf(w, "%s %d\n",
					promName(m.Name+"_bucket", m.Labels, Label{Key: "le", Value: formatFloat(b.Le)}), b.Count); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s %s\n", promName(m.Name+"_sum", m.Labels), formatFloat(m.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s %d\n", promName(m.Name+"_count", m.Labels), m.Count)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", promName(m.Name, m.Labels), formatFloat(m.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// PrometheusText returns WritePrometheus as a string.
func (s Snapshot) PrometheusText() string {
	var sb strings.Builder
	_ = s.WritePrometheus(&sb)
	return sb.String()
}

// JSON renders the snapshot as indented, diffable JSON: metrics are
// already in canonical order and struct fields encode in declaration
// order, so equal snapshots produce byte-equal documents.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("obs: snapshot JSON: " + err.Error()) // structs of plain values cannot fail
	}
	return string(b)
}

// DecodeSnapshot parses a document produced by JSON, rebuilding the
// canonical keys so Value, Series and Diff work on the result.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	for i := range s.Metrics {
		m := &s.Metrics[i]
		kv := make([]string, 0, 2*len(m.Labels))
		for _, l := range m.Labels {
			kv = append(kv, l.Key, l.Value)
		}
		m.key = string(appendKey(nil, m.Name, kv))
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].key < s.Metrics[j].key })
	return s, nil
}

// Diff lists the canonical keys whose values differ between two
// snapshots (missing counts as different) — the assertion primitive for
// telemetry regressions in chaos and bench runs.
func Diff(a, b Snapshot) []string {
	index := func(s Snapshot) map[string]Metric {
		m := make(map[string]Metric, len(s.Metrics))
		for _, em := range s.Metrics {
			m[em.key] = em
		}
		return m
	}
	am, bm := index(a), index(b)
	seen := make(map[string]bool, len(am)+len(bm))
	var keys []string
	for _, em := range a.Metrics {
		seen[em.key] = true
		keys = append(keys, em.key)
	}
	for _, em := range b.Metrics {
		if !seen[em.key] {
			keys = append(keys, em.key)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		x, okA := am[k]
		y, okB := bm[k]
		if !okA || !okB || !sameMetric(x, y) {
			out = append(out, k)
		}
	}
	return out
}

func sameMetric(a, b Metric) bool {
	if a.Type != b.Type || a.Value != b.Value || a.Sum != b.Sum || a.Count != b.Count ||
		len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}
