package obs

import (
	"fmt"
	"testing"

	"vhadoop/internal/sim"
)

// BenchmarkCounterAdd measures the hot-path cost of a cached instrument
// handle — what subsystems pay per event after SetObs resolved it.
func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry(nil)
	c := reg.Counter("mr_spill_bytes_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(float64(i))
	}
}

// BenchmarkRegistryLookup measures a lookup hit for a labelled
// instrument: canonical key construction into the registry's reused
// buffer plus one map probe.
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
