package vhadoop_test

// Regression tests for the data-plane determinism guarantee: the sorted
// map-side spills and the reduce-side k-way merge must leave every job's
// output — record order included — exactly reproducible under a fixed seed.
// These would catch an unstable spill sort, a merge that breaks ties by the
// wrong run, or a partitioner change silently re-routing keys.

import (
	"strings"
	"testing"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/faults"
	"vhadoop/internal/faults/chaostest"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// runWordcountOnce runs a 4-reduce wordcount on a fresh same-seed platform
// and returns the ordered output records and the virtual finish time.
func runWordcountOnce(t *testing.T) ([]mapreduce.KV, sim.Time) {
	t.Helper()
	pl := core.MustNewPlatform(platformOpts(8, core.Normal, 42))
	var out []mapreduce.KV
	vsec, err := pl.Run(func(p *sim.Proc) error {
		recs := datasets.Text(pl.Engine.Rand(), datasets.DefaultTextOptions(32e6))
		if _, err := pl.LoadText(p, "/wc", 32e6, recs); err != nil {
			return err
		}
		h, err := pl.MR.Submit(p, workloads.WordcountJob("/wc", "", 4, true))
		if err != nil {
			return err
		}
		if _, err := h.Wait(p); err != nil {
			return err
		}
		out = h.OutputRecords()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, vsec
}

func TestWordcountOutputDeterministic(t *testing.T) {
	out1, vsec1 := runWordcountOnce(t)
	out2, vsec2 := runWordcountOnce(t)
	if vsec1 != vsec2 {
		t.Fatalf("virtual time differs across same-seed runs: %v vs %v", vsec1, vsec2)
	}
	if len(out1) == 0 || len(out1) != len(out2) {
		t.Fatalf("output lengths differ: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if out1[i].Key != out2[i].Key || out1[i].Value != out2[i].Value {
			t.Fatalf("record %d differs: %s=%v vs %s=%v",
				i, out1[i].Key, out1[i].Value, out2[i].Key, out2[i].Value)
		}
	}
}

// runKMeansOnce runs exactly 3 k-means iterations on a fresh same-seed
// platform and returns the resulting centers and history.
func runKMeansOnce(t *testing.T) clustering.Result {
	t.Helper()
	series := datasets.ControlChart(sim.New(7).Rand(), datasets.DefaultControlChartOptions())
	vectors := clustering.FromFloats(datasets.ControlVectors(series))
	initial := []clustering.Vector{
		vectors[0].Clone(), vectors[100].Clone(), vectors[200].Clone(),
		vectors[300].Clone(), vectors[400].Clone(), vectors[500].Clone(),
	}
	opts := clustering.DefaultKMeansOptions(len(initial))
	opts.MaxIter = 3
	opts.Epsilon = 0 // run all 3 iterations regardless of convergence

	pl := core.MustNewPlatform(platformOpts(8, core.Normal, 42))
	d := clustering.NewDriver(pl, "/ml/in")
	var res clustering.Result
	if _, err := pl.Run(func(p *sim.Proc) error {
		if err := d.Load(p, vectors); err != nil {
			return err
		}
		var err error
		res, err = clustering.KMeansMR(p, d, initial, opts)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
	return res
}

func TestKMeansCentersDeterministic(t *testing.T) {
	r1 := runKMeansOnce(t)
	r2 := runKMeansOnce(t)
	if len(r1.History) != len(r2.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(r1.History), len(r2.History))
	}
	// Centers after every iteration must match bitwise: floating-point sums
	// are order-sensitive, so this fails if the shuffle feeds partials to
	// the reducers in a different order between runs.
	for it := range r1.History {
		for c := range r1.History[it] {
			v1, v2 := r1.History[it][c], r2.History[it][c]
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("iteration %d center %d dim %d differs: %v vs %v",
						it, c, i, v1[i], v2[i])
				}
			}
		}
	}
	for i := range r1.Assignments {
		if r1.Assignments[i] != r2.Assignments[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, r1.Assignments[i], r2.Assignments[i])
		}
	}
}

// TestFaultedRunTraceDeterministic extends the determinism guarantee to the
// fault path: a fixed platform seed plus a fixed fault schedule must
// reproduce a byte-identical span trace — fault firings, recoveries,
// re-replication, tracker death and requeues included — across independent
// runs. This is what makes a chaos failure replayable from two integers.
func TestFaultedRunTraceDeterministic(t *testing.T) {
	sched := faults.Schedule{Faults: []faults.Fault{
		{At: 3, Kind: faults.KindDegrade, Target: "pm2", Duration: 6, Factor: 0.25},
		{At: 5, Kind: faults.KindNFSStall, Target: "filer", Duration: 4, Factor: 0.5},
		{At: 7, Kind: faults.KindVMCrash, Target: "vm05"},
		{At: 9, Kind: faults.KindHang, Target: "vm02", Duration: 20},
	}}
	run := func() chaostest.Result {
		r, err := chaostest.Run(chaostest.Wordcount(), 42, sched)
		if err != nil {
			t.Fatalf("faulted run failed: %v", err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Output != r2.Output || r1.End != r2.End {
		t.Fatal("output or end time differ across same-seed faulted runs")
	}
	// The observability exports carry the guarantee: the metrics snapshot
	// (Prometheus text) and the span trace (JSON), which holds every
	// event, must be byte-identical across same-seed faulted runs, so
	// dashboards and timelines replay too.
	if r1.Metrics == "" || r1.TraceJSON == "" {
		t.Fatal("observability exports are empty")
	}
	if r1.Metrics != r2.Metrics {
		t.Fatalf("metrics snapshots differ across same-seed faulted runs: %d vs %d bytes",
			len(r1.Metrics), len(r2.Metrics))
	}
	if r1.TraceJSON != r2.TraceJSON {
		t.Fatalf("span traces differ across same-seed faulted runs: %d vs %d bytes",
			len(r1.TraceJSON), len(r2.TraceJSON))
	}
	tr, err := obs.DecodeTrace([]byte(r1.TraceJSON))
	if err != nil {
		t.Fatalf("exported span trace does not decode: %v", err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("exported span trace holds no spans")
	}
	if len(tr.Events) == 0 {
		t.Fatal("decoded spans hold no events: nothing was exercised")
	}
	// And the schedule itself round-trips through its codec, so the trace
	// is reproducible from the schedule *file*, not just the in-memory value.
	dec, err := faults.Decode(strings.NewReader(faults.EncodeString(sched)))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := chaostest.Run(chaostest.Wordcount(), 42, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r3.TraceJSON != r1.TraceJSON {
		t.Fatal("decoded schedule produced a different span trace")
	}
}
