// Package obs is the platform-wide observability plane of vHadoop: one
// deterministic layer that replaces the ad-hoc telemetry surfaces
// (scattered trace lines, nmon annotation marks, raw sample fields)
// with
//
//   - a metrics registry — counters, gauges and fixed-bucket histograms
//     keyed by (name, labels), iterated in a deterministic order and
//     timestamped off the simulation clock;
//   - span-based tracing — a Job → Phase (map/shuffle/reduce) → Task
//     hierarchy plus spans for HDFS pipeline writes, VM live migrations
//     and injected faults, exported as diffable JSON and as an
//     nmon-style SVG timeline;
//   - snapshot export — Prometheus text format plus a JSON codec, so
//     chaos and bench runs can assert on telemetry byte-for-byte.
//
// Everything the plane records is keyed to virtual time and emitted in
// creation order, so a fixed platform seed reproduces byte-identical
// exports — the trace and the metrics are part of the replay-compared
// regression surface, enforced by determinism_test.go.
//
// The tracer's event log is the platform's only trace: each event is
// recorded once, as time, kind, span and format+args, and rendered at
// export. The determinism and chaos suites compare that export across
// reruns.
//
// Every method is nil-safe: a subsystem holding a nil *Plane (a cluster
// built outside core.NewPlatform, a unit test) can instrument its hot
// paths unconditionally and pay only a nil check.
package obs

import (
	"vhadoop/internal/sim"
)

// Plane bundles the registry and the tracer for one platform instance.
type Plane struct {
	registry *Registry
	tracer   *Tracer
}

// New creates an observability plane bound to the engine: registry
// snapshots and spans and events are stamped with the engine's virtual
// clock.
func New(e *sim.Engine) *Plane {
	return &Plane{
		registry: NewRegistry(e.Now),
		tracer:   newTracer(e),
	}
}

// Registry returns the plane's metrics registry (nil for a nil plane).
func (pl *Plane) Registry() *Registry {
	if pl == nil {
		return nil
	}
	return pl.registry
}

// Tracer returns the plane's span tracer (nil for a nil plane).
func (pl *Plane) Tracer() *Tracer {
	if pl == nil {
		return nil
	}
	return pl.tracer
}

// Counter is shorthand for Registry().Counter.
func (pl *Plane) Counter(name string, labels ...string) *Counter {
	return pl.Registry().Counter(name, labels...)
}

// Gauge is shorthand for Registry().Gauge.
func (pl *Plane) Gauge(name string, labels ...string) *Gauge {
	return pl.Registry().Gauge(name, labels...)
}

// Histogram is shorthand for Registry().Histogram.
func (pl *Plane) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return pl.Registry().Histogram(name, buckets, labels...)
}

// Start is shorthand for Tracer().Start.
func (pl *Plane) Start(kind SpanKind, name string, parent *Span) *Span {
	return pl.Tracer().Start(kind, name, parent)
}

// Eventf is shorthand for Tracer().Eventf: a top-level typed event.
func (pl *Plane) Eventf(kind SpanKind, format string, args ...any) {
	pl.Tracer().Eventf(kind, format, args...)
}

// Snapshot is shorthand for Registry().Snapshot.
func (pl *Plane) Snapshot() Snapshot { return pl.Registry().Snapshot() }
