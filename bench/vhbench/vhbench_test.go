package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for vhbench when the suite
// re-execs it, so the smoke test goes through the real child path.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload once, timed and traced, at one op per batch
// through a child process, and holds what it prints to the declared metric
// sets: every name exactly once, with its unit, and nothing else.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 0, smoke: true, out: t.TempDir()}
	for _, w := range workloadSet(true) {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			out, err := child(w.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.res.Correct, out.res.Attempted, out.res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: printed %d metrics, declared %d", w.name, traced, len(out.res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s printed=%v unit %q, want %q", w.name, traced, d.name, ok, m.Unit, d.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %v", w.name, d.name, m.Value)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
			if !traced {
				// The child's virtual results must reproduce in this process.
				res, info, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if info.SimDigest != out.info.SimDigest {
					t.Errorf("%s: sim_digest %s in-process, %s in the child", w.name, info.SimDigest, out.info.SimDigest)
				}
				if got, want := res.Metrics["sim_vsec"].Value, out.res.Metrics["sim_vsec"].Value; got != want {
					t.Errorf("%s: sim_vsec %v in-process, %v in the child", w.name, got, want)
				}
			}
		}
	}
}

// TestExactLayerMetricsRepeat runs two traced batches in-process and holds
// every metric declared exact to repeat to the last digit.
func TestExactLayerMetricsRepeat(t *testing.T) {
	for _, w := range workloadSet(true) {
		seeds := opSeeds(1, w.ops)
		bs, ls := timedBatches(w, w.prepare(seeds), seeds, 0, 2, newTracer(), nil)
		a := batchLayerMetrics(float64(w.ops), ls[0], bs[0])
		b := batchLayerMetrics(float64(w.ops), ls[1], bs[1])
		for _, d := range perLayer {
			if d.exact && a[d.name] != b[d.name] {
				t.Errorf("%s: exact metric %s was %v then %v", w.name, d.name, a[d.name], b[d.name])
			}
		}
		if bs[0].failed+bs[1].failed != 0 {
			t.Errorf("%s: %d failed ops", w.name, bs[0].failed+bs[1].failed)
		}
	}
}

// TestYardstick holds a slice to allocating nothing, so that it can start no
// collection of the batch's garbage, and an interval's reading to what
// runBatch relies on: slices were taken, their seconds fit inside the
// interval by both clocks, and a nil yardstick scales by 1.
func TestYardstick(t *testing.T) {
	y := newYardstick()
	defer y.close()
	if n := testing.AllocsPerRun(20, y.slice); n != 0 {
		t.Errorf("a slice makes %v allocations, want 0", n)
	}
	t0, cpu0 := time.Now(), cpuSeconds()
	y.begin()
	for time.Since(t0) < 10*yardPeriod {
		runtime.Gosched()
	}
	r := y.end()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if r.n < 2 || r.wall <= 0 || r.wall >= wall || r.cpu <= 0 || r.cpu >= cpu {
		t.Errorf("%d slices took %v s (CPU %v s) of an interval of %v s (CPU %v s)", r.n, r.wall, r.cpu, wall, cpu)
	}
	if got, want := r.wallScale(), yardRef*float64(r.n)/r.wall; got != want {
		t.Errorf("wallScale = %v, want %v", got, want)
	}
	var none *yardstick
	none.begin()
	if r := none.end(); r.wallScale() != 1 || r.cpuScale() != 1 {
		t.Errorf("no yardstick scales by %v and %v, want 1", r.wallScale(), r.cpuScale())
	}
}

// TestMetricNames holds the declared names to the contract's limits.
func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, d := range all {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better=%q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// TestManifestMatches holds BENCHMARK.json to the names, units, directions
// and bounds this package declares, in both directions.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json two levels up: not inside the repository")
	}
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var manifest struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d entries, package declares %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: manifest %+v, package %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
	set := workloadSet(false)
	if len(manifest.Workloads) != len(set) {
		t.Fatalf("manifest has %d workloads, package %d", len(manifest.Workloads), len(set))
	}
	for i, w := range set {
		if g := manifest.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), package %q (%q)", i, g.Name, g.Why, w.name, w.why)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartiles([]float64{1, 2, 4}), [3]float64{1, 2, 4}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: vhbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             runtime.newobject (inline)
             vhadoop/internal/vnet.(*Fabric).recomputeRates
             vhadoop/internal/sim.(*Proc).yield
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   vhadoop/internal/jobsvc/backlog.Run
             main.jobsvcOp
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.schedule
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu_share.vnet": 0.3, "cpu_share.gc_background": 0.1, "cpu_share.jobsvc": 0.4, "cpu_share.unattributed": 0.2,
		"cpu_in.mallocgc": 0.3, "cpu_in.vnet_recompute": 0.3, "cpu_in.handoff": 0.3,
	}
	if len(got) != len(want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

// TestCompareSets pins the three verdicts of -selfcheck.
func TestCompareSets(t *testing.T) {
	set := workloadSet(true)[:1]
	mk := func(wall []float64, vsec float64) measuredSet {
		ms := measuredSet{timed: map[string][]runOutput{}, traced: map[string]runOutput{}}
		for _, x := range wall {
			m := fill(endToEnd, map[string]float64{"sim_vsec": vsec})
			for _, d := range endToEnd {
				if !d.exact {
					m[d.name] = measured{Value: x, Unit: d.unit}
				}
			}
			ms.timed[set[0].name] = append(ms.timed[set[0].name], runOutput{res: result{Metrics: m}})
		}
		ms.traced[set[0].name] = runOutput{res: result{Metrics: fill(perLayer, nil)}}
		return ms
	}
	base := mk([]float64{1, 1.001, 1.002, 1.003}, 5)
	if n := compareSets(set, base, mk([]float64{1.002, 1.001, 1.003, 1}, 5)); n != 0 {
		t.Errorf("identical sets: %d rows disagree", n)
	}
	// vsec_per_wall_s is higher-is-better, so a uniform +50 % disagrees on
	// every bounded lower-is-better metric and on none other.
	lower := 0
	for _, d := range endToEnd {
		if !d.exact && d.better == "lower" {
			lower++
		}
	}
	if n := compareSets(set, base, mk([]float64{1.5, 1.501, 1.502, 1.503}, 5)); n != lower {
		t.Errorf("+50%% set: %d rows disagree, want %d", n, lower)
	}
	if n := compareSets(set, base, mk([]float64{1, 1.001, 1.002, 1.003}, 5.0001)); n != 1 {
		t.Errorf("moved sim_vsec: %d rows disagree, want 1", n)
	}
	// A set whose own spread exceeds every bound resolves nothing.
	if n := compareSets(set, base, mk([]float64{0.5, 1, 1.5, 2}, 5)); n != 0 {
		t.Errorf("noisy set: %d rows disagree, want 0 (unresolved)", n)
	}
}
