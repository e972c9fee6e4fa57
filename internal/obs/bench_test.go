package obs

import (
	"fmt"
	"testing"

	"vhadoop/internal/sim"
)

// BenchmarkCounterAdd measures the hot-path cost of a cached instrument
// handle — what subsystems pay per event after SetObs cached the handle.
func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry(nil)
	c := reg.Counter("mr_spill_bytes_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(float64(i))
	}
}

// BenchmarkRegistryLookup measures the uncached path: canonical key
// construction plus map lookup for a labelled instrument.
func BenchmarkRegistryLookup(b *testing.B) {
	reg := NewRegistry(nil)
	reg.Counter("mr_task_failures_total", "kind", "map").Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Counter("mr_task_failures_total", "kind", "map")
	}
}

// BenchmarkSnapshotPrometheus measures a full export of a realistically
// sized registry (a few hundred series) to Prometheus text.
func BenchmarkSnapshotPrometheus(b *testing.B) {
	reg := NewRegistry(nil)
	for i := 0; i < 64; i++ {
		vm := fmt.Sprintf("vm%02d", i)
		reg.Gauge("nmon_vm_cpu_mean", "vm", vm).Set(float64(i) / 64)
		reg.Counter("mr_spill_bytes_total", "vm", vm).Add(1e6)
		reg.Histogram("mr_task_seconds", []float64{0.5, 1, 2, 5, 10}, "vm", vm).Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot().PrometheusText()
	}
}

// BenchmarkTracerSpan measures the span lifecycle the MapReduce layer
// pays per task attempt: start, two attributes, finish.
func BenchmarkTracerSpan(b *testing.B) {
	pl := New(sim.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := pl.Start(KindTask, "wc:m0.0", nil)
		sp.SetAttr("vm", "vm01").SetFloat("seconds", 1.5)
		sp.Finish()
	}
}

// BenchmarkVecWithHit measures the interned fast path — the cost hot
// code pays per With once the tuple is cached — against the legacy
// string lookup it replaces (BenchmarkRegistryLookup).
func BenchmarkVecWithHit(b *testing.B) {
	reg := NewRegistry(nil)
	v := reg.CounterVec("mr_task_failures_total", "kind")
	v.With("map").Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("map")
	}
}

// BenchmarkVecWithHitTwoLabels exercises the array-keyed two-label
// cache, still allocation-free on hits.
func BenchmarkVecWithHitTwoLabels(b *testing.B) {
	reg := NewRegistry(nil)
	v := reg.GaugeVec("nmon_vm_load", "vm", "kind")
	v.With("vm01", "map").Set(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("vm01", "map")
	}
}

// BenchmarkEventf measures recording one event: the cost is capturing
// format+args, since rendering waits for export.
func BenchmarkEventf(b *testing.B) {
	pl := New(sim.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Eventf(KindTask, "speculating %s%d of %s", "m", i, "wc")
	}
}
