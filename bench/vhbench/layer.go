package main

import (
	"runtime"
	"sort"
)

// ratio is a/b, or 0 when the layer did no such work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batchLayerMetrics turns what one traced batch observed into per-layer
// metrics. Counts are means per op; host times are per unit of the layer's
// own work, measured around the harness's calls into it. Host time inside a
// driver closure includes everything the engine simulated while that call
// was parked — that is the intended meaning.
func batchLayerMetrics(ops float64, l *layers, b batchStats) map[string]float64 {
	perOp := func(key string) float64 { return l.sum[key] / ops }
	runMs := l.total("run_ms")
	tasks, attempts := l.sum["mr_task_seconds"], l.sum["attempts"]
	return map[string]float64{
		"vnet.flows":            perOp("flows"),
		"vnet.bytes":            perOp("vnet_bytes"),
		"vnet.host_us_per_flow": ratio(runMs*1e3, l.sum["flows"]),

		"nfs.read_bytes":  perOp("nfs_read"),
		"nfs.write_bytes": perOp("nfs_write"),

		"hdfs.write_host_ms":          perOp("hdfs_write_ms"),
		"hdfs.read_host_ms":           perOp("hdfs_read_ms"),
		"hdfs.write_MBps_sim_normal":  perOp("write_MBps_normal"),
		"hdfs.write_MBps_sim_xdomain": perOp("write_MBps_xdomain"),
		"hdfs.read_MBps_sim_normal":   perOp("read_MBps_normal"),
		"hdfs.read_MBps_sim_xdomain":  perOp("read_MBps_xdomain"),
		"hdfs.bytes_written":          perOp("hdfs_bytes_written_total"),
		"hdfs.bytes_read":             perOp("hdfs_bytes_read_total"),
		"hdfs.pipeline_failovers":     perOp("hdfs_pipeline_failovers_total"),

		"mapreduce.jobs":               perOp("mr_jobs_completed_total"),
		"mapreduce.tasks":              tasks / ops,
		"mapreduce.attempts":           attempts / ops,
		"mapreduce.extra_attempt_frac": ratio(attempts-tasks, tasks),
		"mapreduce.local_map_frac":     ratio(l.sum["js_local_maps"], l.sum["js_maps"]),
		"mapreduce.shuffle_bytes":      perOp("mr_shuffle_bytes_total"),
		"mapreduce.spill_bytes":        perOp("mr_spill_bytes_total"),
		"mapreduce.output_records":     perOp("output_records"),
		"mapreduce.host_us_per_task":   ratio(runMs*1e3, tasks),
		"mapreduce.host_ns_per_record": ratio(runMs*1e6, l.sum["output_records"]),

		"workloads.gen_vsec":  perOp("gen_vsec"),
		"workloads.sort_vsec": perOp("sort_vsec"),
		"workloads.hsph_sim":  perOp("hsph"),

		"clustering.iterations":            perOp("iterations"),
		"clustering.host_ms_per_iteration": ratio(l.sum["kmeans_ms"], l.sum["iterations"]),

		"jobsvc.makespan_vsec":   perOp("makespan"),
		"jobsvc.p99_wait_vsec":   perOp("p99_wait"),
		"jobsvc.jain":            perOp("jain"),
		"jobsvc.admitted":        perOp("admitted"),
		"jobsvc.rejected":        perOp("rejected"),
		"jobsvc.backfills":       perOp("backfills"),
		"jobsvc.preemptions":     perOp("preemptions"),
		"jobsvc.host_ms_per_job": ratio(runMs, l.sum["jobs"]),

		"obs.snapshot_ms":   perOp("snapshot_ms"),
		"obs.trace_json_ms": perOp("trace_json_ms"),
		"obs.metrics_bytes": perOp("metrics_bytes"),
		"obs.trace_bytes":   perOp("trace_bytes"),
		"obs.spans":         perOp("spans"),

		"host.gc_count":       float64(b.gcCount),
		"host.gc_pause_ms":    float64(b.gcPauseNs) / 1e6,
		"host.heap_sys_bytes": float64(b.heapSysBytes),
	}
}

// percentile returns the p-quantile of sorted xs by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// layerMetrics combines the traced batches: a deterministic count is read
// from the first batch (every batch repeats it), a host time is the median
// over batches, and the core percentiles pool every call of the run.
func layerMetrics(w workload, bs []batchStats, ls []*layers) map[string]float64 {
	per := make([]map[string]float64, len(bs))
	for i := range bs {
		per[i] = batchLayerMetrics(float64(w.ops), ls[i], bs[i])
	}
	values := make(map[string]float64)
	for _, d := range perLayer {
		if _, ok := per[0][d.name]; !ok {
			continue
		}
		if d.exact {
			values[d.name] = per[0][d.name]
			continue
		}
		xs := make([]float64, len(per))
		for i := range per {
			xs[i] = per[i][d.name]
		}
		values[d.name] = median(xs)
	}

	var provision, run []float64
	for _, l := range ls {
		provision = append(provision, l.samples["provision_ms"]...)
		run = append(run, l.samples["run_ms"]...)
	}
	sort.Float64s(run)
	values["core.provision_ms"] = median(provision)
	values["core.run_ms_p50"] = percentile(run, 0.50)
	if len(run) >= 200 { // a p95 needs ten samples beyond it
		values["core.run_ms_p95"] = percentile(run, 0.95)
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	values["host.gc_cpu_frac"] = m.GCCPUFraction
	return values
}
