package main

// The benchmark's vocabulary: the four workloads, the end-to-end metrics a
// timed run prints, and the per-layer metrics a traced run prints. The same
// names, units and bounds are written in BENCHMARK.json at the repository
// root; TestManifestMatches keeps the two from drifting apart.

// metricDef names one metric. exact marks a deterministic quantity of the
// simulated model: for a fixed seed it must repeat to the last digit, so two
// commits compare as counts, not as timings.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
	exact  bool
}

// endToEnd is what a user of the simulator pays (host seconds, allocations,
// memory) and reads (virtual seconds) per fixed batch of ops. The four host
// times are scaled by the yardstick (yardstick.go) to a reference host.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "vsec_per_wall_s", unit: "vsec/s", better: "higher", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.025},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.02},
	{name: "peak_rss_bytes", unit: "B", better: "lower", bound: 0.2},
	{name: "sim_vsec", unit: "vsec", better: "lower", bound: 0.015, exact: true},
}

// perLayer lists every per-layer metric in print order. A metric that does
// not apply to the workload being run (hdfs.write_host_ms on kmeans, say)
// is printed as 0, so every traced run prints the same names.
var perLayer = []metricDef{
	// core: provisioning and the driver call, host time.
	{name: "core.provision_ms", unit: "ms", better: "lower"},
	{name: "core.run_ms_p50", unit: "ms", better: "lower"},
	{name: "core.run_ms_p95", unit: "ms", better: "lower"},

	// sim: probes on a bare engine.
	{name: "sim.probe_handoff_ns", unit: "ns", better: "lower"},
	{name: "sim.probe_timer_ns", unit: "ns", better: "lower"},
	{name: "sim.probe_fairshare_ns", unit: "ns", better: "lower"},
	{name: "sim.probe_allocs_per_event", unit: "count", better: "lower"},

	// vnet: flow-churn probes, then per-op counters of the workload.
	{name: "vnet.probe_flow_us_8", unit: "us", better: "lower"},
	{name: "vnet.probe_flow_us_64", unit: "us", better: "lower"},
	{name: "vnet.flows", unit: "count", better: "lower", exact: true},
	{name: "vnet.bytes", unit: "B", better: "lower", exact: true},
	{name: "vnet.host_us_per_flow", unit: "us", better: "lower"},

	{name: "nfs.read_bytes", unit: "B", better: "lower", exact: true},
	{name: "nfs.write_bytes", unit: "B", better: "lower", exact: true},

	{name: "hdfs.write_host_ms", unit: "ms", better: "lower"},
	{name: "hdfs.read_host_ms", unit: "ms", better: "lower"},
	{name: "hdfs.write_MBps_sim_normal", unit: "MB/s", better: "higher", exact: true},
	{name: "hdfs.write_MBps_sim_xdomain", unit: "MB/s", better: "higher", exact: true},
	{name: "hdfs.read_MBps_sim_normal", unit: "MB/s", better: "higher", exact: true},
	{name: "hdfs.read_MBps_sim_xdomain", unit: "MB/s", better: "higher", exact: true},
	{name: "hdfs.bytes_written", unit: "B", better: "lower", exact: true},
	{name: "hdfs.bytes_read", unit: "B", better: "lower", exact: true},
	{name: "hdfs.pipeline_failovers", unit: "count", better: "lower", exact: true},

	{name: "mapreduce.jobs", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.tasks", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.attempts", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.extra_attempt_frac", unit: "frac", better: "lower", exact: true},
	{name: "mapreduce.local_map_frac", unit: "frac", better: "higher", exact: true},
	{name: "mapreduce.shuffle_bytes", unit: "B", better: "lower", exact: true},
	{name: "mapreduce.spill_bytes", unit: "B", better: "lower", exact: true},
	{name: "mapreduce.output_records", unit: "count", better: "higher", exact: true},
	{name: "mapreduce.host_us_per_task", unit: "us", better: "lower"},
	{name: "mapreduce.host_ns_per_record", unit: "ns", better: "lower"},

	{name: "workloads.input_gen_ms", unit: "ms", better: "lower"},
	{name: "workloads.teragen_host_ms", unit: "ms", better: "lower"},
	{name: "workloads.gen_vsec", unit: "vsec", better: "lower", exact: true},
	{name: "workloads.sort_vsec", unit: "vsec", better: "lower", exact: true},
	{name: "workloads.hsph_sim", unit: "TB/h", better: "higher", exact: true},

	{name: "clustering.iterations", unit: "count", better: "lower", exact: true},
	{name: "clustering.host_ms_per_iteration", unit: "ms", better: "lower"},
	{name: "clustering.local_kmeans_ms", unit: "ms", better: "lower"},

	{name: "jobsvc.makespan_vsec", unit: "vsec", better: "lower", exact: true},
	{name: "jobsvc.p99_wait_vsec", unit: "vsec", better: "lower", exact: true},
	{name: "jobsvc.jain", unit: "frac", better: "higher", exact: true},
	{name: "jobsvc.admitted", unit: "count", better: "higher", exact: true},
	{name: "jobsvc.rejected", unit: "count", better: "lower", exact: true},
	{name: "jobsvc.backfills", unit: "count", better: "higher", exact: true},
	{name: "jobsvc.preemptions", unit: "count", better: "lower", exact: true},
	{name: "jobsvc.host_ms_per_job", unit: "ms", better: "lower"},

	{name: "obs.snapshot_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_json_ms", unit: "ms", better: "lower"},
	{name: "obs.metrics_bytes", unit: "B", better: "lower", exact: true},
	{name: "obs.trace_bytes", unit: "B", better: "lower", exact: true},
	{name: "obs.spans", unit: "count", better: "lower", exact: true},

	{name: "host.gc_count", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "host.heap_sys_bytes", unit: "B", better: "lower"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower"},

	// cpu_share: CPU-profile samples of the traced batches by the innermost
	// vhadoop/internal/<pkg> frame; the eleven shares sum to 1.
	{name: "cpu_share.sim", unit: "frac", better: "lower"},
	{name: "cpu_share.vnet", unit: "frac", better: "lower"},
	{name: "cpu_share.hdfs", unit: "frac", better: "lower"},
	{name: "cpu_share.mapreduce", unit: "frac", better: "lower"},
	{name: "cpu_share.workloads", unit: "frac", better: "lower"},
	{name: "cpu_share.clustering", unit: "frac", better: "lower"},
	{name: "cpu_share.jobsvc", unit: "frac", better: "lower"},
	{name: "cpu_share.obs", unit: "frac", better: "lower"},
	{name: "cpu_share.other_pkg", unit: "frac", better: "lower"},
	{name: "cpu_share.gc_background", unit: "frac", better: "lower"},
	{name: "cpu_share.unattributed", unit: "frac", better: "lower"},

	// cpu_in: share of samples whose stack contains the named function.
	{name: "cpu_in.mallocgc", unit: "frac", better: "lower"},
	{name: "cpu_in.handoff", unit: "frac", better: "lower"},
	{name: "cpu_in.vnet_recompute", unit: "frac", better: "lower"},
	{name: "cpu_in.heartbeat", unit: "frac", better: "lower"},
	{name: "cpu_in.pickjob", unit: "frac", better: "lower"},
}

// measured is one printed value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard
// output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fill builds the printed metric set from values, one entry per def;
// a name with no value prints 0.
func fill(defs []metricDef, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.name] = measured{Value: values[d.name], Unit: d.unit}
	}
	return out
}
