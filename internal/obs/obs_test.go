package obs

import (
	"encoding/xml"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"vhadoop/internal/sim"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(2)
	g := r.Gauge("slots", "vm", "vm01")
	g.Set(4)
	g.Set(3)
	// Same (name, labels) in any label order resolves to one instrument.
	c2 := r.Counter("bytes", "vm", "vm01", "kind", "map")
	c2.Inc()
	c3 := r.Counter("bytes", "kind", "map", "vm", "vm01")
	if c3 != c2 {
		t.Fatalf("label order changed instrument identity")
	}
	c3.Inc()
	snap := r.Snapshot()
	if got, _ := snap.Value("jobs_total"); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if got, _ := snap.Value("slots", "vm", "vm01"); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	if got, _ := snap.Value("bytes", "vm", "vm01", "kind", "map"); got != 2 || len(snap.Series("bytes")) != 1 {
		t.Fatalf("bytes = %v in %d series, want 2 in one", got, len(snap.Series("bytes")))
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	NewRegistry(nil).Counter("x").Add(-1)
}

func TestCounterNaNPanics(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("x")
	c.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("NaN counter add did not panic")
		}
		if got, _ := r.Snapshot().Value("x"); got != 1 {
			t.Fatalf("counter = %v after rejected NaN add, want 1", got)
		}
	}()
	c.Add(math.NaN())
}

func TestTypeClashPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge/counter clash did not panic")
		}
	}()
	r.Gauge("x")
}

// TestTypeClashAcrossLabelsPanics: the family is per name, not per label
// set, so a gauge under a counter's name panics even with new labels —
// otherwise it would export under the counter's # TYPE header.
func TestTypeClashAcrossLabelsPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("x", "k", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter's name did not panic")
		}
	}()
	r.Gauge("x", "k", "b")
}

// TestHistogramBucketEdges pins the le-semantics: a value lands in the
// first bucket whose upper bound is >= the value, values beyond the
// last bound land in the implicit +Inf bucket, and exported buckets are
// cumulative.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat", []float64{1, 5, 10})
	var wantSum float64
	for _, v := range []float64{
		0,    // below first bound -> bucket le=1
		1,    // exactly on a bound -> that bucket (le semantics)
		1.01, // just above -> le=5
		5,    // on the middle bound
		10,   // on the last bound
		10.5, // above the last bound -> +Inf only
		-3,   // negative still lands in the first bucket
	} {
		h.Observe(v)
		wantSum += v
	}
	snap := r.Snapshot()
	m := snap.Series("lat")[0]
	if m.Count != 7 {
		t.Fatalf("count = %d, want 7", m.Count)
	}
	wantCum := []uint64{3, 5, 6, 7} // le=1, le=5, le=10, +Inf (cumulative)
	for i, b := range m.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.Le, b.Count, wantCum[i])
		}
	}
	if m.Buckets[3].Le < sim.Forever {
		t.Fatalf("last bucket bound = %v, want +Inf sentinel", m.Buckets[3].Le)
	}
	if m.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", m.Sum, wantSum)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	r := NewRegistry(nil)
	for _, bad := range [][]float64{{}, {5, 1}, {1, 1}} {
		func() {
			defer func() { recover() }()
			r.Histogram("h", bad)
			t.Fatalf("buckets %v accepted", bad)
		}()
	}
	r.Histogram("ok", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registration with different buckets did not panic")
		}
	}()
	r.Histogram("ok", []float64{1, 3})
}

// TestRegistryDeterministicUnderSimProcs runs several interleaved sim
// processes that all write into one registry and checks that two
// identically seeded runs export byte-identical Prometheus text and
// JSON — the registry inherits the engine's determinism because it is
// only ever touched from sim context.
func TestRegistryDeterministicUnderSimProcs(t *testing.T) {
	run := func() (string, string) {
		e := sim.New(7)
		p := New(e)
		for i := 0; i < 4; i++ {
			id := i
			e.Spawn("writer", func(pr *sim.Proc) {
				vm := []string{"vm00", "vm01", "vm02", "vm03"}[id]
				c := p.Counter("work_total", "vm", vm)
				h := p.Histogram("step_seconds", []float64{0.5, 1, 2}, "vm", vm)
				for j := 0; j < 5; j++ {
					d := pr.Engine().Rand().Float64()
					pr.Sleep(d)
					c.Inc()
					h.Observe(d)
					p.Gauge("last_step", "vm", vm).Set(d)
				}
			})
		}
		e.Run()
		snap := p.Snapshot()
		return snap.PrometheusText(), snap.JSON()
	}
	prom1, js1 := run()
	prom2, js2 := run()
	if prom1 != prom2 {
		t.Fatalf("prometheus text differs between identically seeded runs:\n%s\n---\n%s", prom1, prom2)
	}
	if js1 != js2 {
		t.Fatalf("JSON snapshot differs between identically seeded runs")
	}
	if !strings.Contains(prom1, `work_total{vm="vm02"} 5`) {
		t.Fatalf("missing expected sample; got:\n%s", prom1)
	}
}

func TestSnapshotReaderAndCodec(t *testing.T) {
	e := sim.New(1)
	r := NewRegistry(e.Now)
	r.Counter("a_total", "k", "x").Add(2)
	r.Counter("a_total", "k", "y").Add(3)
	r.Gauge("b").Set(1.5)
	r.Histogram("c", []float64{1}).Observe(0.5)
	collected := false
	r.OnCollect(func() { collected = true; r.Gauge("live").Set(9) })

	snap := r.Snapshot()
	if !collected {
		t.Fatal("collector did not run")
	}
	if v, ok := snap.Value("a_total", "k", "x"); !ok || v != 2 {
		t.Fatalf("Value(a_total,k=x) = %v,%v", v, ok)
	}
	if v, ok := snap.Value("c"); !ok || v != 1 {
		t.Fatalf("histogram Value = %v,%v, want count 1", v, ok)
	}
	if _, ok := snap.Value("a_total"); ok {
		t.Fatal("unlabelled lookup matched a labelled metric")
	}
	if got := snap.Total("a_total"); got != 5 {
		t.Fatalf("Total = %v, want 5", got)
	}
	if got := snap.Series("a_total"); len(got) != 2 || got[0].Label("k") != "x" || got[1].Label("k") != "y" {
		t.Fatalf("Series(a_total) = %+v, want k=x then k=y", got)
	}

	dec, err := DecodeSnapshot([]byte(snap.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if diff := Diff(snap, dec); len(diff) != 0 {
		t.Fatalf("decoded snapshot differs: %v", diff)
	}
	if dec.JSON() != snap.JSON() {
		t.Fatal("JSON round-trip is not byte-stable")
	}

	r.Counter("a_total", "k", "x").Inc()
	snap2 := r.Snapshot()
	if diff := Diff(snap, snap2); !reflect.DeepEqual(diff, []string{"a_total{k=x}"}) {
		t.Fatalf("Diff = %v", diff)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("x_total", "q", `a"b`).Inc()
	r.Histogram("h_seconds", []float64{1, 2}).Observe(1.5)
	text := r.Snapshot().PrometheusText()
	want := `# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 0
h_seconds_bucket{le="2"} 1
h_seconds_bucket{le="+Inf"} 1
h_seconds_sum 1.5
h_seconds_count 1
# TYPE x_total counter
x_total{q="a\"b"} 1
`
	if text != want {
		t.Fatalf("prometheus text:\n%s\nwant:\n%s", text, want)
	}
}

func TestSpansAndEvents(t *testing.T) {
	e := sim.New(1)
	p := New(e)
	e.Spawn("job", func(pr *sim.Proc) {
		job := p.Start(KindJob, `wordcount <a&"b">`, nil)
		phase := p.Start(KindPhase, "map", job)
		pr.Sleep(2)
		task := p.Start(KindTask, "m0", phase).SetAttr("vm", "vm01").SetFloat("bytes", 1024)
		pr.Sleep(1)
		task.Eventf("task %s done", "m0")
		task.SetAttr("vm", "vm02") // replaces, not appends
		task.Finish()
		phase.Finish()
		job.Finish()
		p.Eventf(KindFault, `fault: vmcrash vm01 <&"'`)
	})
	e.Run()

	tr := p.Tracer().Export()
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(tr.Spans))
	}
	job, phase, task := tr.Spans[0], tr.Spans[1], tr.Spans[2]
	if job.ID != 1 || phase.Parent != job.ID || task.Parent != phase.ID {
		t.Fatalf("hierarchy wrong: %+v", tr.Spans)
	}
	if task.Start != 2 || task.End != 3 || job.End != 3 {
		t.Fatalf("timing wrong: task [%v,%v], job end %v", task.Start, task.End, job.End)
	}
	if !reflect.DeepEqual(task.Attrs, []Attr{{"vm", "vm02"}, {"bytes", "1024"}}) {
		t.Fatalf("attrs = %v", task.Attrs)
	}
	if len(tr.Events) != 2 || tr.Events[0].Span != task.ID || tr.Events[1].Kind != KindFault {
		t.Fatalf("events = %+v", tr.Events)
	}

	js := p.Tracer().JSON()
	dec, err := DecodeTrace([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, tr) {
		t.Fatal("trace JSON round-trip mismatch")
	}
	svg := tr.SVG()
	for _, want := range []string{"<svg", "</svg>",
		"job wordcount &lt;a&amp;&#34;b&#34;&gt;", // lane label
		"vmcrash vm01 &lt;&amp;&#34;&#39;",        // event tooltip
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	xd := xml.NewDecoder(strings.NewReader(svg))
	for {
		if _, err := xd.Token(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("SVG not well-formed: %v", err)
		}
	}
}

// TestNilSafety: every entry point must be a no-op on nil receivers so
// un-wired subsystems can instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var p *Plane
	p.Counter("c").Inc()
	p.Counter("c").Add(1)
	p.Gauge("g").Set(1)
	p.Histogram("h", []float64{1}).Observe(1)
	s := p.Start(KindJob, "j", nil)
	s.SetAttr("k", "v").SetFloat("f", 1)
	s.Eventf("e %d", 1)
	s.Finish()
	p.Eventf(KindFault, "f")
	if p.Registry() != nil || p.Tracer() != nil {
		t.Fatal("nil plane leaked non-nil components")
	}
	if got := p.Snapshot(); len(got.Metrics) != 0 {
		t.Fatal("nil plane snapshot not empty")
	}
	if p.Counter("c") != nil || p.Gauge("g") != nil || p.Histogram("h", []float64{1}) != nil {
		t.Fatal("nil plane returned a live instrument")
	}
	var reg *Registry
	reg.OnCollect(func() {})
	var tr *Tracer
	if tr.JSON() == "" {
		t.Fatal("nil tracer JSON should still be a document")
	}
}

// TestVecNilSafety: labelled lookups on a nil registry or plane return
// nil instruments that accept writes and export nothing.
func TestVecNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c", "k", "v").Add(2)
	reg.Gauge("g", "k", "v").Set(1)
	reg.Histogram("h", []float64{1}, "k", "v").Observe(1)
	var p *Plane
	p.Counter("c", "a", "1", "b", "2").Inc()
	p.Gauge("g", "a", "1").Set(1)
	p.Histogram("h", []float64{1}, "a", "1", "b", "2", "c", "3").Observe(1)
	if reg.Counter("c", "k", "v") != nil || reg.Gauge("g", "k", "v") != nil ||
		reg.Histogram("h", []float64{1}, "k", "v") != nil {
		t.Fatal("nil registry returned a live labelled instrument")
	}
	if p.Counter("c", "a", "1", "b", "2") != nil || p.Gauge("g", "a", "1") != nil ||
		p.Histogram("h", []float64{1}, "a", "1", "b", "2", "c", "3") != nil {
		t.Fatal("nil plane returned a live labelled instrument")
	}
	if len(reg.Snapshot().Metrics) != 0 || len(p.Snapshot().Metrics) != 0 {
		t.Fatal("nil registry or plane exported metrics")
	}
}
