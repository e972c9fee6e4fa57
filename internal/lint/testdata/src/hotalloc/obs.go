package hotalloc

import (
	"vhadoop/internal/obs"
)

// hotCounterLookup re-resolves the counter by string key per call
// instead of using a handle resolved at construction.
//
//vhlint:hot
func hotCounterLookup(r *obs.Registry, vm string) {
	r.Counter("tasks_total", "vm", vm).Inc() // want "obs lookup Counter in hot function hotCounterLookup"
}

// hotGaugeLookup does the same through a Plane shorthand.
//
//vhlint:hot
func hotGaugeLookup(pl *obs.Plane) {
	pl.Gauge("depth").Set(1) // want "obs lookup Gauge in hot function hotGaugeLookup"
}

// hotHistogramLookup re-resolves a histogram per observation.
//
//vhlint:hot
func hotHistogramLookup(r *obs.Registry, v float64) {
	r.Histogram("seconds", []float64{1, 2}).Observe(v) // want "obs lookup Histogram in hot function hotHistogramLookup"
}

// hotEventf boxes its arguments on every call even though rendering is
// deferred.
//
//vhlint:hot
func hotEventf(pl *obs.Plane, vm string) {
	pl.Eventf(obs.KindTask, "task on %s", vm) // want "obs Eventf in hot function hotEventf"
}

// hotCachedHandle uses a pre-resolved handle — the sanctioned pattern,
// not flagged.
//
//vhlint:hot
func hotCachedHandle(c *obs.Counter) {
	c.Inc()
}

// coldLookup is unannotated: lookups outside hot regions are fine.
func coldLookup(r *obs.Registry) {
	r.Counter("setup_total").Inc()
}
