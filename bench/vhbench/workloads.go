package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"vhadoop/internal/clustering"
	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/jobsvc"
	"vhadoop/internal/jobsvc/backlog"
	"vhadoop/internal/obs"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// opOut is what one workload iteration produced.
type opOut struct {
	vsec   float64 // virtual seconds the op simulated
	digest string  // the op's virtual results, formatted to full precision
	err    error   // an error or failed output check inside the op
	// check verifies the op's outputs against a reference that is too
	// costly to compute inside the timed region; the harness calls it for
	// the first batch after timing ends. nil when err covers everything.
	check func() error
}

// workload is one set of inputs the benchmark runs. ops is a constant of the
// benchmark: every batch of a run repeats the same ops iterations, so the
// work per batch is fixed and only the number of batches follows -seconds.
type workload struct {
	name string
	why  string
	ops  int
	// prepare builds the inputs of ops iterations from their seeds,
	// outside the simulation. It is part of set-up.
	prepare func(seeds []int64) any
	// op runs iteration i on inputs in. tr and lay are nil in timed runs.
	op func(in any, i int, seed int64, tr *tracer, lay *layers) opOut
}

// workloadSet returns the four workloads. smoke shrinks each batch to one
// op and the job-service backlog to its quick shape, for the smoke test;
// numbers from a smoke run compare with nothing.
func workloadSet(smoke bool) []workload {
	shape := backlogShape{tenants: 100, jobs: 1000, nodes: 16}
	if smoke {
		shape = backlogShape{tenants: 20, jobs: 200, nodes: 8}
	}
	set := []workload{
		{
			name: "terasort", ops: 50,
			why:     "TeraGen->TeraSort->TeraValidate at 100/400/1000 MB: the MapReduce data plane and generators do the work, allocation-heavy",
			prepare: func([]int64) any { return nil },
			op:      terasortOp,
		},
		{
			name: "dfsio", ops: 60,
			why:     "15x512 MB DFSIO write then read on both layouts: bypasses MapReduce, bulk vnet flows and rate recomputation dominate",
			prepare: func([]int64) any { return nil },
			op:      dfsioOp,
		},
		{
			name: "kmeans", ops: 40,
			why:     "ten k-means iterations on the 1000-point sample: many tiny jobs, per-job fixed cost and engine hand-offs dominate",
			prepare: kmeansInputs,
			op:      kmeansOp,
		},
		{
			name: "jobsvc", ops: 1,
			why:     "100 tenants x 1000 jobs through the fair-share scheduler, mixed then uniform: control plane and obs export under load",
			prepare: func([]int64) any { return shape },
			op:      jobsvcOp,
		},
	}
	if smoke {
		for i := range set {
			set[i].ops = 1
		}
	}
	return set
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// platformFor provisions the paper's 16-node platform in the given layout.
func platformFor(seed int64, layout core.Layout, tr *tracer, lay *layers) (*core.Platform, error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Layout = layout
	s := tr.begin("core.NewPlatform")
	pl, err := core.NewPlatform(opts)
	lay.sample("provision_ms", tr.end(s))
	return pl, err
}

// runOn times Platform.Run around driver and, in a traced run, reads the
// platform's counters once the simulation has drained.
func runOn(pl *core.Platform, tr *tracer, lay *layers, driver func(p *sim.Proc) error) (sim.Time, error) {
	s := tr.begin("Platform.Run")
	end, err := pl.Run(driver)
	lay.sample("run_ms", tr.end(s))
	if lay != nil {
		observePlatform(pl, tr, lay)
	}
	return end, err
}

// observePlatform exports the platform's obs artifacts, timing the exports,
// and folds the public counters of each layer into lay.
func observePlatform(pl *core.Platform, tr *tracer, lay *layers) {
	s := tr.begin("obs.Snapshot")
	snap := pl.Obs.Snapshot()
	text := snap.PrometheusText()
	lay.add("snapshot_ms", tr.end(s))
	s = tr.begin("obs.Tracer.JSON")
	js := pl.Obs.Tracer().JSON()
	lay.add("trace_json_ms", tr.end(s))
	lay.add("metrics_bytes", float64(len(text)))
	lay.add("trace_bytes", float64(len(js)))
	observeTrace(pl.Obs.Tracer().Export(), lay)
	observeCounters(snap.Total, lay)

	lay.add("flows", float64(pl.Fabric.FlowsStarted()))
	for _, l := range pl.Fabric.Links() {
		lay.add("vnet_bytes", l.BytesCarried())
	}
	lay.add("nfs_read", pl.NFS.ReadBytes())
	lay.add("nfs_write", pl.NFS.WriteBytes())
}

// observeCounters folds the obs registry totals the per-layer metrics use.
func observeCounters(total func(name string) float64, lay *layers) {
	for _, name := range []string{
		"hdfs_bytes_written_total", "hdfs_bytes_read_total", "hdfs_pipeline_failovers_total",
		"mr_jobs_completed_total", "mr_task_seconds", "mr_shuffle_bytes_total", "mr_spill_bytes_total",
	} {
		lay.add(name, total(name))
	}
}

// observeTrace counts the spans of an exported obs trace; every task
// attempt, successful or not, is one task span.
func observeTrace(t obs.Trace, lay *layers) {
	lay.add("spans", float64(len(t.Spans)))
	for _, sp := range t.Spans {
		if sp.Kind == obs.KindTask {
			lay.add("attempts", 1)
		}
	}
}

// terasort ------------------------------------------------------------------

var teraSizesMB = []float64{100, 400, 1000}

// terasortOp is the Figure 4(a) sweep on a fresh normal-layout platform per
// size: below, at and above the sort-buffer spill knee.
func terasortOp(_ any, _ int, seed int64, tr *tracer, lay *layers) opOut {
	var out opOut
	var dg strings.Builder
	for _, mb := range teraSizesMB {
		pl, err := platformFor(seed, core.Normal, tr, lay)
		if err != nil {
			return opOut{err: err}
		}
		topts := workloads.DefaultTeraOptions(mb * 1e6)
		var res workloads.TeraResult
		_, err = runOn(pl, tr, lay, func(p *sim.Proc) error {
			s := tr.begin("workloads.RunTeraSort")
			defer tr.end(s)
			var err error
			res, err = workloads.RunTeraSort(p, pl, topts)
			return err
		})
		switch {
		case err != nil:
			out.err = err
		case !res.Validated:
			out.err = fmt.Errorf("terasort %v MB: output not globally sorted", mb)
		case res.Rows != topts.RealRows:
			out.err = fmt.Errorf("terasort %v MB: %d rows out, %d generated", mb, res.Rows, topts.RealRows)
		}
		out.vsec += res.GenTime + res.SortTime
		fmt.Fprintf(&dg, "%v gen=%s sort=%s rows=%d;", mb, fmtF(res.GenTime), fmtF(res.SortTime), res.Rows)
		lay.add("gen_vsec", res.GenTime)
		lay.add("sort_vsec", res.SortTime)
		lay.add("output_records", float64(res.Rows))
		if mb == 1000 {
			// TPCx-HS's HSph: data volume in TB over the run's hours.
			lay.add("hsph", mb*1e6/1e12/((res.GenTime+res.SortTime)/3600))
		}
	}
	out.digest = dg.String()
	return out
}

// dfsio ---------------------------------------------------------------------

var dfsioOptions = workloads.DFSIOOptions{Files: 15, FileBytes: 512e6}

// dfsioOp writes then reads one 512 MB file per worker, first on the normal
// and then on the cross-domain layout.
func dfsioOp(_ any, _ int, seed int64, tr *tracer, lay *layers) opOut {
	var out opOut
	var dg strings.Builder
	for _, layout := range []core.Layout{core.Normal, core.CrossDomain} {
		pl, err := platformFor(seed, layout, tr, lay)
		if err != nil {
			return opOut{err: err}
		}
		var w, r workloads.DFSIOResult
		end, err := runOn(pl, tr, lay, func(p *sim.Proc) error {
			s := tr.begin("workloads.RunDFSIOWrite")
			var err error
			w, err = workloads.RunDFSIOWrite(p, pl, dfsioOptions)
			lay.add("hdfs_write_ms", tr.end(s))
			if err != nil {
				return err
			}
			s = tr.begin("workloads.RunDFSIORead")
			r, err = workloads.RunDFSIORead(p, pl, dfsioOptions)
			lay.add("hdfs_read_ms", tr.end(s))
			return err
		})
		want := float64(dfsioOptions.Files) * dfsioOptions.FileBytes
		if err == nil && pl.DFS.BytesRead() != want {
			err = fmt.Errorf("dfsio %v: read %v bytes, wrote %v", layout, pl.DFS.BytesRead(), want)
		}
		if err != nil {
			out.err = err
		}
		out.vsec += end
		fmt.Fprintf(&dg, "%v end=%s w=%s r=%s;", layout, fmtF(end), fmtF(w.ThroughputMBps), fmtF(r.ThroughputMBps))
		suffix := "normal"
		if layout == core.CrossDomain {
			suffix = "xdomain"
		}
		lay.add("write_MBps_"+suffix, w.ThroughputMBps)
		lay.add("read_MBps_"+suffix, r.ThroughputMBps)
	}
	out.digest = dg.String()
	return out
}

// kmeans --------------------------------------------------------------------

// kmeansInputs draws one 1000-point DisplayClustering sample per op.
func kmeansInputs(seeds []int64) any {
	in := make([][]clustering.Vector, len(seeds))
	for i, seed := range seeds {
		pts, _ := datasets.DisplayClusteringSample(sim.New(seed).Rand())
		in[i] = clustering.FromFloats(pts)
	}
	return in
}

// kmeansOp is one Figure 7 point: load the sample and run k-means (k=3) as
// MapReduce jobs on a 16-node normal-layout platform. The convergence test
// is switched off, so every op runs MaxIter = 10 iterations whatever its
// sample: with it on, the job count per op, and with it every per-op
// metric, moved by several percent from seed to seed.
func kmeansOp(in any, i int, seed int64, tr *tracer, lay *layers) opOut {
	vecs := in.([][]clustering.Vector)[i]
	pl, err := platformFor(seed, core.Normal, tr, lay)
	if err != nil {
		return opOut{err: err}
	}
	d := clustering.NewDriver(pl, "/ml/input")
	kopts := clustering.DefaultKMeansOptions(3)
	kopts.Epsilon = -1
	var initial []clustering.Vector
	var res clustering.Result
	_, err = runOn(pl, tr, lay, func(p *sim.Proc) error {
		s := tr.begin("clustering.Driver.Load")
		err := d.Load(p, vecs)
		tr.end(s)
		if err != nil {
			return err
		}
		centers := d.InitCenters(3)
		for _, c := range centers {
			initial = append(initial, c.Clone())
		}
		s = tr.begin("clustering.KMeansMR")
		res, err = clustering.KMeansMR(p, d, centers, kopts)
		lay.add("kmeans_ms", tr.end(s))
		return err
	})
	if err != nil {
		return opOut{err: err}
	}
	var dg strings.Builder
	fmt.Fprintf(&dg, "rt=%s it=%d", fmtF(res.Runtime), res.Iterations)
	for _, c := range res.Centers {
		for _, x := range c {
			dg.WriteString(" " + fmtF(x))
		}
	}
	lay.add("iterations", float64(res.Iterations))
	for _, js := range res.JobStats {
		lay.add("js_maps", float64(js.MapTasks))
		lay.add("js_local_maps", float64(js.LocalMaps))
		lay.add("output_records", float64(js.OutputRecords))
	}
	return opOut{vsec: res.Runtime, digest: dg.String(), check: func() error {
		return kmeansMatchesReference(vecs, initial, kopts, res)
	}}
}

// kmeansMatchesReference holds the MapReduce result to the in-memory
// reference, with the tolerance of clustering's TestKMeansMRMatchesReference.
func kmeansMatchesReference(vecs, initial []clustering.Vector, kopts clustering.KMeansOptions, mr clustering.Result) error {
	ref, err := clustering.KMeans(vecs, initial, kopts)
	if err != nil {
		return err
	}
	if mr.Iterations != ref.Iterations || len(mr.Centers) != len(ref.Centers) {
		return fmt.Errorf("kmeans: %d iterations and %d centers, reference %d and %d",
			mr.Iterations, len(mr.Centers), ref.Iterations, len(ref.Centers))
	}
	for i := range ref.Centers {
		if d := clustering.Euclidean(mr.Centers[i], ref.Centers[i]); d > 1e-6 || math.IsNaN(d) {
			return fmt.Errorf("kmeans: center %d is %v from the reference", i, d)
		}
	}
	return nil
}

// jobsvc --------------------------------------------------------------------

type backlogShape struct{ tenants, jobs, nodes int }

// jobsvcOp is the `vhadoop jobsvc` study: the mixed then the uniform backlog
// through the fair-share scheduler, every obs artifact exported.
func jobsvcOp(in any, _ int, seed int64, tr *tracer, lay *layers) opOut {
	shape := in.(backlogShape)
	var out opOut
	var dg strings.Builder
	for _, uniform := range []bool{false, true} {
		o := backlog.Options{
			Nodes: shape.nodes, Seed: seed, Tenants: shape.tenants, Jobs: shape.jobs, Uniform: uniform,
			Config: jobsvc.Config{Tick: 2, Backfill: true, Preemption: true, StarveWait: 40, MaxPreemptPerTick: 2},
		}
		s := tr.begin("backlog.Run")
		r, err := backlog.Run(o)
		lay.sample("run_ms", tr.end(s))
		switch {
		case err != nil:
			return opOut{err: err}
		case r.Admitted != o.Jobs || r.Rejected != 0:
			out.err = fmt.Errorf("jobsvc uniform=%v: admitted %d of %d, rejected %d", uniform, r.Admitted, o.Jobs, r.Rejected)
		case uniform && r.Jain < 0.9:
			out.err = fmt.Errorf("jobsvc uniform: Jain index %v below 0.9", r.Jain)
		}
		out.vsec += r.Makespan
		fmt.Fprintf(&dg, "uniform=%v makespan=%s p99=%s jain=%s bf=%d pre=%d metrics=%x;", uniform,
			fmtF(r.Makespan), fmtF(r.P99Wait), fmtF(r.Jain), r.Backfills, r.Preemptions, sha(r.Metrics))
		if lay == nil {
			continue
		}
		lay.add("makespan", r.Makespan)
		lay.add("admitted", float64(r.Admitted))
		lay.add("rejected", float64(r.Rejected))
		lay.add("backfills", float64(r.Backfills))
		lay.add("preemptions", float64(r.Preemptions))
		if uniform {
			lay.add("jain", r.Jain)
		} else {
			lay.add("p99_wait", r.P99Wait)
		}
		lay.add("jobs", float64(o.Jobs))
		lay.add("metrics_bytes", float64(len(r.Metrics)))
		lay.add("trace_bytes", float64(len(r.Spans)))
		prom := promTotals(r.Metrics)
		observeCounters(func(name string) float64 { return prom[name] }, lay)
		lay.add("vnet_bytes", prom["vnet_link_bytes"])
		t, err := obs.DecodeTrace([]byte(r.Spans))
		if err != nil {
			out.err = errors.Join(out.err, err)
		}
		observeTrace(t, lay)
	}
	out.digest = dg.String()
	return out
}

// promTotals sums a Prometheus text exposition by metric name; a histogram
// contributes its observation count under its base name.
func promTotals(text string) map[string]float64 {
	totals := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		totals[strings.TrimSuffix(name, "_count")] += v
	}
	return totals
}
