package obs

import (
	"fmt"
	"reflect"
	"testing"

	"vhadoop/internal/sim"
)

// TestVecHandleIdentity: With must intern — repeated calls with equal
// label values return the same handle, and that handle is the same
// instrument the legacy string lookup resolves.
func TestVecHandleIdentity(t *testing.T) {
	r := NewRegistry(nil)

	cv := r.CounterVec("tasks_total", "vm")
	a := cv.With("vm01")
	if b := cv.With("vm01"); a != b {
		t.Fatal("CounterVec.With returned distinct handles for equal labels")
	}
	a.Inc()
	if legacy := r.Counter("tasks_total", "vm", "vm01"); legacy.Value() != 1 {
		t.Fatal("vec-resolved and string-resolved handles are different instruments")
	}

	// Two labels hit the array-keyed cache; identity must still hold
	// against the legacy lookup in either label order.
	gv := r.GaugeVec("load", "vm", "kind")
	gv.With("vm02", "map").Set(7)
	if g := r.Gauge("load", "kind", "map", "vm", "vm02"); g.Value() != 7 {
		t.Fatal("two-label vec handle not shared with canonicalised lookup")
	}
	if g1, g2 := gv.With("vm02", "map"), gv.With("vm02", "map"); g1 != g2 {
		t.Fatal("two-label With not interned")
	}

	// Zero and 3+ label arities.
	zv := r.CounterVec("total")
	if zv.With() != zv.With() {
		t.Fatal("zero-label With not interned")
	}
	hv := r.HistogramVec("lat", []float64{1, 2}, "a", "b", "c")
	h := hv.With("1", "2", "3")
	h.Observe(1.5)
	if h2 := r.Histogram("lat", []float64{1, 2}, "a", "1", "b", "2", "c", "3"); h2.Count() != 1 {
		t.Fatal("three-label vec handle not shared with legacy lookup")
	}
	if h != hv.With("1", "2", "3") {
		t.Fatal("three-label With not interned")
	}
}

func TestVecArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	NewRegistry(nil).CounterVec("x", "vm").With("a", "b")
}

// TestVecNilSafety: nil planes and registries must hand out nil vecs
// whose With chains to nil instruments, all no-ops.
func TestVecNilSafety(t *testing.T) {
	var pl *Plane
	pl.CounterVec("c", "k").With("v").Inc()
	pl.GaugeVec("g", "k").With("v").Set(1)
	pl.HistogramVec("h", []float64{1}, "k").With("v").Observe(1)
	var r *Registry
	r.CounterVec("c", "k").With("v").Add(2)
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
