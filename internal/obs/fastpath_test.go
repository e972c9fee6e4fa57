package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vhadoop/internal/sim"
)

// referenceCanonical is the straightforward key builder the registry's
// allocation-free lookup replaced: collect the labels, sort them by key,
// join. The fuzz target holds appendKey to it.
func referenceCanonical(name string, kv []string) (string, []Label) {
	if len(kv) == 0 {
		return name, nil
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String(), labels
}

// TestHandleIdentity: a lookup returns the instrument itself, so equal
// (name, labels) in any label order resolve to the same pointer, through
// the registry and the plane alike.
func TestHandleIdentity(t *testing.T) {
	pl := New(sim.New(1))
	r := pl.Registry()

	if r.Counter("tasks_total", "vm", "vm01") != r.Counter("tasks_total", "vm", "vm01") {
		t.Fatal("equal lookups returned distinct counters")
	}
	if r.Gauge("load", "vm", "vm02", "kind", "map") != pl.Gauge("load", "kind", "map", "vm", "vm02") {
		t.Fatal("label order or the plane changed gauge identity")
	}
	h := r.Histogram("lat", []float64{1, 2}, "a", "1", "b", "2", "c", "3")
	if h != pl.Histogram("lat", []float64{1, 2}, "c", "3", "a", "1", "b", "2") {
		t.Fatal("three-label histogram lookups returned distinct instruments")
	}
	if r.Counter("total") != pl.Counter("total") {
		t.Fatal("unlabelled lookups returned distinct counters")
	}

	// More label pairs than the stack sort holds still build the
	// canonical key.
	var kv []string
	for i := 2*stackPairs - 1; i >= 0; i-- {
		kv = append(kv, fmt.Sprintf("k%02d", i), fmt.Sprint(i))
	}
	want, _ := referenceCanonical("wide", kv)
	if got := (*metric)(r.Counter("wide", kv...)).key; got != want {
		t.Fatalf("wide key = %q, want %q", got, want)
	}
}

// TestOddLabelListPanics: a key without a value panics on the miss path
// and, once the name is registered, on the hit path too.
func TestOddLabelListPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("x", "vm", "a")
	for _, kv := range [][]string{{"vm"}, {"vm", "a", "kind"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("odd label list %q did not panic", kv)
				}
			}()
			r.Counter("x", kv...)
		}()
	}
}

// TestRegistryHitAllocs: resolving an already-registered instrument
// allocates nothing, with zero to three labels, through the registry
// and the plane.
func TestRegistryHitAllocs(t *testing.T) {
	pl := New(sim.New(1))
	r := pl.Registry()
	vm, kind, disk := "vm01", "map", "sda"
	buckets := []float64{1, 2}
	hits := []struct {
		name string
		hit  func()
	}{
		{"registry/0", func() { r.Counter("c0") }},
		{"registry/1", func() { r.Gauge("g1", "vm", vm) }},
		{"registry/2", func() { r.Counter("c2", "vm", vm, "kind", kind) }},
		{"registry/3", func() { r.Histogram("h3", buckets, "vm", vm, "kind", kind, "disk", disk) }},
		{"plane/0", func() { pl.Gauge("g0") }},
		{"plane/1", func() { pl.Counter("c1", "vm", vm) }},
		{"plane/2", func() { pl.Histogram("h2", buckets, "kind", kind, "vm", vm) }},
		{"plane/3", func() { pl.Gauge("g3", "disk", disk, "vm", vm, "kind", kind) }},
	}
	for _, h := range hits {
		h.hit() // register; every later call is a hit
		if n := testing.AllocsPerRun(100, h.hit); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", h.name, n)
		}
	}
}

// FuzzRegistryKey: for label lists with distinct keys, the registry's
// key builder and the labels it stores match referenceCanonical. labels
// is a comma-separated key,value,... list; a trailing odd field is
// dropped.
func FuzzRegistryKey(f *testing.F) {
	f.Add("mr_task_seconds", "kind,map")
	f.Add("nmon_vm_cpu_mean", "vm,vm03,kind,map,disk,sda")
	f.Add("x", "")
	f.Fuzz(func(t *testing.T, name, labels string) {
		var kv []string
		if labels != "" {
			kv = strings.Split(labels, ",")
		}
		kv = kv[:len(kv)&^1]
		seen := make(map[string]bool, len(kv)/2)
		for i := 0; i < len(kv); i += 2 {
			if seen[kv[i]] {
				t.Skip("duplicate label key")
			}
			seen[kv[i]] = true
		}
		wantKey, wantLabels := referenceCanonical(name, kv)
		if got := string(appendKey(nil, name, kv)); got != wantKey {
			t.Fatalf("appendKey(%q, %q) = %q, want %q", name, kv, got, wantKey)
		}
		m := (*metric)(NewRegistry(nil).Gauge(name, kv...))
		if m.key != wantKey || !reflect.DeepEqual(m.labels, wantLabels) {
			t.Fatalf("registered %q %v, want %q %v", m.key, m.labels, wantKey, wantLabels)
		}
	})
}

// TestDeferredEventRendering: Eventf stores format and args and the
// message renders at export; the exported events must equal explicit
// Sprintf results, in emission order, with their time, kind and span.
func TestDeferredEventRendering(t *testing.T) {
	e := sim.New(1)
	p := New(e)
	var spanID int
	e.Spawn("w", func(pr *sim.Proc) {
		sp := p.Start(KindJob, "job", nil)
		spanID = sp.ID
		pr.Sleep(1)
		sp.Eventf("attempt %d of %s failed: %v", 3, "wc", fmt.Errorf("boom"))
		p.Eventf(KindFault, "fault: %s factor %.2f", "netdeg", 0.5)
		sp.Finish()
	})
	e.Run()

	want := []Event{
		{T: 1, Kind: KindJob, Span: spanID, Msg: fmt.Sprintf("attempt %d of %s failed: %v", 3, "wc", fmt.Errorf("boom"))},
		{T: 1, Kind: KindFault, Span: 0, Msg: fmt.Sprintf("fault: %s factor %.2f", "netdeg", 0.5)},
	}
	if got := p.Tracer().Export().Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("exported events = %+v, want %+v", got, want)
	}

	// Exporting twice must not double-render or mutate stored events.
	first := p.Tracer().JSON()
	if second := p.Tracer().JSON(); first != second {
		t.Fatal("repeated export changed rendered events")
	}
}
