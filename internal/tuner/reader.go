package tuner

// This file is the tuner's redesigned input surface. Instead of being
// handed a live nmon.Monitor and poking at its internals, the tuner
// reconstructs its Metrics from an observability-plane obs.Snapshot,
// whether just taken or decoded from a file.
// Decisions therefore replay offline from exported data alone.

import (
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nmon"
	"vhadoop/internal/obs"
)

// MetricsFromSnapshot rebuilds a Metrics round from a registry snapshot.
//
// The mapping mirrors what the subsystems publish: VM summaries from the
// nmon_vm_* gauges, link/disk utilisations from nmon_link_util_mean and
// nmon_disk_util_mean, the bottleneck re-derived with nmon.BottleneckOf
// (the same rule Analyze uses, so live and replayed decisions agree),
// cluster shape from cluster_cross_domain, failure state from
// mr_trackers_dead and hdfs_under_replicated_blocks, and the Hadoop
// configuration from the mr_config_* gauges. Job statistics collapse to a
// single synthetic aggregate: total spill and shuffle volumes from the
// mr_*_bytes_total counters and the worst job's extra attempts from the
// mr_job_extra_attempts gauge (MapTasks and ReduceTasks stay zero so the
// straggler rule sees exactly that excess).
func MetricsFromSnapshot(s obs.Snapshot) Metrics {
	var m Metrics

	links := make(map[string]float64)
	for _, mt := range s.Series("nmon_link_util_mean") {
		links[mt.Label("link")] = mt.Value
	}
	disks := make(map[string]float64)
	for _, mt := range s.Series("nmon_disk_util_mean") {
		disks[mt.Label("disk")] = mt.Value
	}

	var cpuSum float64
	var vms []nmon.VMSummary
	for _, mt := range s.Series("nmon_vm_cpu_mean") {
		name := mt.Label("vm")
		peak, _ := s.Value("nmon_vm_cpu_peak", "vm", name)
		diskBps, _ := s.Value("nmon_vm_disk_bps_mean", "vm", name)
		netBps, _ := s.Value("nmon_vm_net_bps_mean", "vm", name)
		vms = append(vms, nmon.VMSummary{
			VM:          name,
			MeanCPU:     mt.Value,
			PeakCPU:     peak,
			MeanDiskBps: diskBps,
			MeanNetBps:  netBps,
			Samples:     1, // per-sample detail is not exported; the means are
		})
		cpuSum += mt.Value
	}
	var cpuMean float64
	if len(vms) > 0 {
		cpuMean = cpuSum / float64(len(vms))
	}

	m.Report = nmon.Report{
		VMs:        vms,
		Links:      links,
		Disks:      disks,
		Bottleneck: nmon.BottleneckOf(cpuMean, links, disks),
	}

	if v, ok := s.Value("cluster_cross_domain"); ok && v > 0 {
		m.CrossDomain = true
	}
	if v, ok := s.Value("mr_trackers_dead"); ok {
		m.DeadNodes = int(v)
	}
	if v, ok := s.Value("hdfs_under_replicated_blocks"); ok {
		m.UnderReplicated = int(v)
	}

	if v, ok := s.Value("mr_config_map_slots"); ok {
		m.MRConfig.MapSlots = int(v)
	}
	if v, ok := s.Value("mr_config_reduce_slots"); ok {
		m.MRConfig.ReduceSlots = int(v)
	}
	if v, ok := s.Value("mr_config_sort_buffer_bytes"); ok {
		m.MRConfig.SortBufferBytes = v
	}
	if v, ok := s.Value("mr_config_speculative"); ok {
		m.MRConfig.Speculative = v > 0
	}

	spill := s.Total("mr_spill_bytes_total")
	shuffle := s.Total("mr_shuffle_bytes_total")
	extra := 0
	for _, mt := range s.Series("mr_job_extra_attempts") {
		if int(mt.Value) > extra {
			extra = int(mt.Value)
		}
	}
	if spill != 0 || shuffle != 0 || extra != 0 {
		m.RecentJobs = append(m.RecentJobs, mapreduce.JobStats{
			Name:          "registry-aggregate",
			SpillBytes:    spill,
			ShuffledBytes: shuffle,
			Attempts:      extra,
		})
	}
	return m
}
