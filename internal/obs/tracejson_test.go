package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"vhadoop/internal/sim"
)

// marshalIndentTrace is the reference Tracer.JSON replaced: reflection
// over the exported value, then an indentation pass. ok is false when
// encoding/json refuses the trace (a NaN or infinite time).
func marshalIndentTrace(tr *Tracer) (string, bool) {
	b, err := json.MarshalIndent(tr.Export(), "", "  ")
	return string(b), err == nil
}

// tryJSON returns tr.JSON(), or ok false if it panicked.
func tryJSON(tr *Tracer) (js string, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return tr.JSON(), true
}

// awkward holds strings every escape rule of encoding/json's
// HTML-escaping encoder applies to.
var awkward = []string{
	"",
	"plain wc:m0.0",
	`<script>&amp;</script>`,
	`quote " and backslash \`,
	"\b\f\n\r\t\x01\x1f\x7f",
	"bad utf-8 \xff\xfe and a cut rune \xe2\x80",
	"line sep\u2028 para sep\u2029 ",
	"non-ASCII: naïve 日本語 🚀",
	"%d %s %!",
}

// traceTimes are the float edge cases of encoding/json's float64 rule.
var traceTimes = []float64{0, math.Copysign(0, -1), 1e-7, 5e-324, 1e21, 123456789.125,
	1e-6, 1e20, 0.30000000000000004, -1.5e-7, -2.5, math.MaxFloat64, 1.2345678901234567e-6}

// awkwardTracer builds a tracer whose spans and events use every awkward
// string and edge-case time: spans with none, two and more attributes
// than the inline array holds, two spans left open (they export the
// clock, 8.5), and events recorded but not yet rendered.
func awkwardTracer() *Tracer {
	e := sim.New(1)
	p := New(e)
	e.Spawn("w", func(pr *sim.Proc) {
		pr.Sleep(7.5)
		root := p.Start(KindJob, "root", nil)
		for i, s := range awkward {
			sp := p.Start(KindTask, s, root)
			switch i % 3 {
			case 1:
				sp.SetAttr("vm", s).SetFloat("seconds", traceTimes[i%len(traceTimes)])
			case 2:
				for k := 0; k < spanInlineAttrs+2; k++ {
					sp.SetAttr(fmt.Sprintf("k%d%s", k, s), s)
				}
			}
			sp.Eventf("task %s: %v", s, fmt.Errorf("boom %q", s))
			p.Eventf(KindFault, "fault %d %s", i, s)
			sp.Finish()
		}
		open := p.Start(KindHDFSWrite, "open <span>", root)
		open.SetAttr("outcome", "pending")
		pr.Sleep(1)
	})
	e.Run()
	tr := p.Tracer()
	for i, s := range tr.spans {
		if s.open {
			continue
		}
		s.Start = traceTimes[i%len(traceTimes)]
		s.End = traceTimes[(i+5)%len(traceTimes)]
	}
	for i := range tr.events {
		tr.events[i].t = traceTimes[(i+3)%len(traceTimes)]
	}
	return tr
}

// TestTraceJSONMatchesMarshalIndent: Tracer.JSON writes the bytes
// json.MarshalIndent(tr.Export(), "", "  ") does, for nil and empty
// tracers, open spans, spilled attributes, unrendered events, every
// string escape and every float format edge, and both refuse NaN and
// infinite times.
func TestTraceJSONMatchesMarshalIndent(t *testing.T) {
	cases := []struct {
		name string
		tr   func() *Tracer
	}{
		{"nil", func() *Tracer { return nil }},
		{"empty", func() *Tracer { return New(sim.New(1)).Tracer() }},
		{"awkward", awkwardTracer},
		{"spans-only", func() *Tracer {
			tr := New(sim.New(1)).Tracer()
			tr.Start(KindCluster, "boot", nil).Finish()
			return tr
		}},
		{"events-only", func() *Tracer {
			tr := New(sim.New(1)).Tracer()
			tr.Eventf(KindFault, "fault: %s", "vmcrash")
			return tr
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.tr()
			got := tr.JSON() // first: the events are still unrendered
			want, ok := marshalIndentTrace(tr)
			if !ok {
				t.Fatal("reference encoder refused the trace")
			}
			if got != want {
				t.Fatalf("Tracer.JSON differs from MarshalIndent:\n%s\nwant:\n%s", got, want)
			}
		})
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := awkwardTracer()
		tr.events[len(tr.events)-1].t = bad
		if _, ok := marshalIndentTrace(tr); ok {
			t.Fatalf("reference encoder accepted time %v", bad)
		}
		if _, ok := tryJSON(tr); ok {
			t.Fatalf("Tracer.JSON accepted time %v", bad)
		}
	}
}

// FuzzTraceJSON holds Tracer.JSON to the MarshalIndent oracle over
// arbitrary span names, attribute values, event messages and times.
func FuzzTraceJSON(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, awkward[(i+1)%len(awkward)], awkward[(i+2)%len(awkward)],
			traceTimes[i%len(traceTimes)], traceTimes[(i+1)%len(traceTimes)], traceTimes[(i+2)%len(traceTimes)])
	}
	e := sim.New(1)
	f.Fuzz(func(t *testing.T, name, value, msg string, start, end, at float64) {
		tr := New(e).Tracer()
		sp := tr.Start(KindTask, name, nil)
		for k := 0; k <= spanInlineAttrs; k++ {
			sp.SetAttr(fmt.Sprint("k", k), value)
		}
		sp.Finish()
		sp.Start, sp.End = start, end
		tr.Start(KindPhase, value, sp).SetAttr(name, msg) // left open
		tr.Eventf(KindFault, "%s", msg)
		sp.Eventf("task %q: %v", msg, fmt.Errorf("%s", name))
		tr.events[0].t = at

		got, gotOK := tryJSON(tr) // first: the events are still unrendered
		want, ok := marshalIndentTrace(tr)
		switch {
		case gotOK != ok:
			t.Fatalf("times %v %v %v: Tracer.JSON ok %v, MarshalIndent ok %v", start, end, at, gotOK, ok)
		case got != want:
			t.Fatalf("Tracer.JSON differs from MarshalIndent:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestTraceJSONAllocs: once the events are rendered, Tracer.JSON makes
// one allocation, its output buffer, at 100 spans and at 2,000 alike.
func TestTraceJSONAllocs(t *testing.T) {
	for _, n := range []int{100, 2000} {
		e := sim.New(1)
		p := New(e)
		e.Spawn("w", func(pr *sim.Proc) {
			job := p.Start(KindJob, "wordcount", nil)
			for i := 0; i < n; i++ {
				pr.Sleep(0.137)
				sp := p.Start(KindTask, fmt.Sprintf("wc:m%d.0", i), job).SetAttr("vm", "vm03").SetFloat("seconds", pr.Now()/3)
				if i%10 == 0 {
					sp.SetAttr("outcome", "killed").SetAttr("reason", "speculated").SetAttr("by", "m1.1")
				}
				if i%2 == 0 {
					sp.Eventf("attempt %s done at %.3f", sp.Name, pr.Now())
				}
				sp.Finish()
			}
		})
		e.Run()
		tr := p.Tracer()
		first := tr.JSON()
		if got := testing.AllocsPerRun(10, func() { _ = tr.JSON() }); got != 1 {
			t.Errorf("%d spans: Tracer.JSON made %v allocations, want 1", n, got)
		}
		if want, _ := marshalIndentTrace(tr); first != want {
			t.Fatalf("%d spans: Tracer.JSON differs from MarshalIndent", n)
		}
	}
}

// TestSpanFloatRenderedAtExport: SetFloat stores its value and Export and
// JSON render it with formatFloat, so the trace reads as if SetFloat had
// rendered at once: a later SetAttr or SetFloat on the key replaces it, and
// a second float key renders at once without disturbing the first. Setting
// a float, on a fresh span or over an earlier value, allocates nothing.
func TestSpanFloatRenderedAtExport(t *testing.T) {
	e := sim.New(1)
	p := New(e)
	tr := p.Tracer()
	a := tr.Start(KindTask, "a", nil).SetAttr("vm", "vm01").SetFloat("seconds", 1.5)
	tr.Start(KindTask, "b", nil).SetFloat("seconds", 2).SetAttr("seconds", "n/a")
	tr.Start(KindTask, "c", nil).SetFloat("bytes", 1e21).SetFloat("downtime", 0.25).SetFloat("bytes", sim.Forever)
	d := tr.Start(KindTask, "d", nil)
	for k := 0; k < spanInlineAttrs+1; k++ {
		d.SetAttr(fmt.Sprintf("k%d", k), "v")
	}
	d.SetFloat("late", 1e-7)
	if a.Attrs[1].Value != "" {
		t.Fatalf("SetFloat rendered %q before export", a.Attrs[1].Value)
	}
	js := tr.JSON()
	got := tr.Export()
	want := [][]Attr{
		{{"vm", "vm01"}, {"seconds", "1.5"}},
		{{"seconds", "n/a"}},
		{{"bytes", "+Inf"}, {"downtime", "0.25"}},
		{{"k0", "v"}, {"k1", "v"}, {"k2", "v"}, {"k3", "v"}, {"k4", "v"}, {"late", "1e-07"}},
	}
	for i, w := range want {
		if g := got.Spans[i].Attrs; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("span %s attrs = %v, want %v", got.Spans[i].Name, g, w)
		}
	}
	if m, _ := marshalIndentTrace(tr); js != m {
		t.Fatal("Tracer.JSON differs from MarshalIndent")
	}

	spans := make([]*Span, 128)
	for i := range spans {
		spans[i] = tr.Start(KindTask, "m", nil).SetAttr("vm", "vm01")
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		spans[i].SetFloat("seconds", float64(i)).SetFloat("seconds", 0.5)
		i++
	}); n != 0 {
		t.Errorf("SetFloat: %v allocations, want 0", n)
	}
}

// TestPrometheusTextAllocs: a label value that needs no escaping is
// returned as is, so a snapshot whose labels are plain builds no
// strings.Replacer. When every label value built its own replacer, this
// snapshot took 715 allocations to render; it now takes 379 (447 under
// -race), and the budget sits about 15 % above the -race count.
func TestPrometheusTextAllocs(t *testing.T) {
	for _, v := range []string{"", "vm01", "map", "hdfs-write"} {
		if got := promEscape(v); got != v {
			t.Fatalf("promEscape(%q) = %q", v, got)
		}
		if n := testing.AllocsPerRun(100, func() { _ = promEscape(v) }); n != 0 {
			t.Errorf("promEscape(%q): %v allocations, want 0", v, n)
		}
	}
	if got, want := promEscape("a\\b\"c\nd"), `a\\b\"c\nd`; got != want {
		t.Fatalf("promEscape escaped to %q, want %q", got, want)
	}

	reg := NewRegistry(nil)
	for i := 0; i < 16; i++ {
		vm := fmt.Sprintf("vm%02d", i)
		reg.Gauge("nmon_vm_cpu_mean", "vm", vm, "kind", "map").Set(float64(i) / 16)
		reg.Counter("mr_spill_bytes_total", "vm", vm).Add(1e6)
	}
	snap := reg.Snapshot()
	if n := testing.AllocsPerRun(10, func() { _ = snap.PrometheusText() }); n > 515 {
		t.Fatalf("PrometheusText: %v allocations, budget 515", n)
	}
	if text := snap.PrometheusText(); !strings.Contains(text, `nmon_vm_cpu_mean{kind="map",vm="vm07"} 0.4375`) {
		t.Fatalf("PrometheusText lost a sample:\n%s", text)
	}
}
