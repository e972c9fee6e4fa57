package tuner

import (
	"reflect"
	"testing"

	"vhadoop/internal/obs"
)

// faultyRegistry publishes the registry shape the platform exports on an
// unhealthy run: hot cross-domain network, heavy spilling, stragglers
// without speculation, and a lost node.
func faultyRegistry() *obs.Registry {
	reg := obs.NewRegistry(nil)
	reg.Gauge("nmon_vm_cpu_mean", "vm", "vm01").Set(0.5)
	reg.Gauge("nmon_vm_cpu_peak", "vm", "vm01").Set(0.9)
	reg.Gauge("nmon_vm_disk_bps_mean", "vm", "vm01").Set(4e6)
	reg.Gauge("nmon_vm_net_bps_mean", "vm", "vm01").Set(9e6)
	reg.Gauge("nmon_vm_cpu_mean", "vm", "vm02").Set(0.3)
	reg.Gauge("nmon_link_util_mean", "link", "pm1.tx").Set(0.92)
	reg.Gauge("nmon_link_util_mean", "link", "pm2.tx").Set(0.40)
	reg.Gauge("nmon_disk_util_mean", "disk", "filer.disk").Set(0.35)
	reg.Gauge("cluster_cross_domain").Set(1)
	reg.Gauge("mr_trackers_dead").Set(1)
	reg.Gauge("hdfs_under_replicated_blocks").Set(3)
	reg.Gauge("mr_config_map_slots").Set(2)
	reg.Gauge("mr_config_reduce_slots").Set(1)
	reg.Gauge("mr_config_sort_buffer_bytes").Set(100e6)
	reg.Gauge("mr_config_speculative").Set(0)
	reg.Counter("mr_spill_bytes_total").Add(400e6)
	reg.Counter("mr_shuffle_bytes_total").Add(1000e6)
	reg.Gauge("mr_job_extra_attempts", "job", "wc1").Set(3)
	reg.Gauge("mr_job_extra_attempts", "job", "wc2").Set(1)
	return reg
}

func TestMetricsFromSnapshot(t *testing.T) {
	m := MetricsFromSnapshot(faultyRegistry().Snapshot())

	if len(m.Report.VMs) != 2 {
		t.Fatalf("VMs = %d, want 2", len(m.Report.VMs))
	}
	vm1 := m.Report.VMs[0]
	if vm1.VM != "vm01" || vm1.MeanCPU != 0.5 || vm1.PeakCPU != 0.9 ||
		vm1.MeanDiskBps != 4e6 || vm1.MeanNetBps != 9e6 {
		t.Errorf("vm01 summary = %+v", vm1)
	}
	if got := m.Report.Links["pm1.tx"]; got != 0.92 {
		t.Errorf("pm1.tx util = %g", got)
	}
	if got := m.Report.Disks["filer.disk"]; got != 0.35 {
		t.Errorf("filer.disk util = %g", got)
	}
	b := m.Report.Bottleneck
	if b.Resource != "pm1.tx" || b.Kind != "network" || b.MeanUtil != 0.92 {
		t.Errorf("bottleneck = %+v", b)
	}
	if !m.CrossDomain {
		t.Error("CrossDomain = false")
	}
	if m.DeadNodes != 1 || m.UnderReplicated != 3 {
		t.Errorf("DeadNodes=%d UnderReplicated=%d", m.DeadNodes, m.UnderReplicated)
	}
	if m.MRConfig.MapSlots != 2 || m.MRConfig.ReduceSlots != 1 ||
		m.MRConfig.SortBufferBytes != 100e6 || m.MRConfig.Speculative {
		t.Errorf("MRConfig = %+v", m.MRConfig)
	}
	if len(m.RecentJobs) != 1 {
		t.Fatalf("RecentJobs = %d, want 1 synthetic aggregate", len(m.RecentJobs))
	}
	js := m.RecentJobs[0]
	if js.SpillBytes != 400e6 || js.ShuffledBytes != 1000e6 || js.Attempts != 3 {
		t.Errorf("aggregate job = %+v", js)
	}
	if js.MapTasks != 0 || js.ReduceTasks != 0 {
		t.Errorf("aggregate job tasks = %d/%d, want 0/0", js.MapTasks, js.ReduceTasks)
	}
}

// TestMetricsFromSnapshotBreaksTiesByName pins the bottleneck among
// equally busy resources to the first link by name, as nmon.BottleneckOf
// picks it. The reader holds links and disks in maps; a pick that walked
// them would name whichever it met first, so six tied links are read 32
// times.
func TestMetricsFromSnapshotBreaksTiesByName(t *testing.T) {
	reg := obs.NewRegistry(nil)
	for _, l := range []string{"pm2.tx", "pm1.rx", "pm2.rx", "pm1.tx", "filer.tx", "filer.rx"} {
		reg.Gauge("nmon_link_util_mean", "link", l).Set(0.9)
	}
	reg.Gauge("nmon_disk_util_mean", "disk", "filer.disk").Set(0.9)
	snap := reg.Snapshot()
	for r := 0; r < 32; r++ {
		if b := MetricsFromSnapshot(snap).Report.Bottleneck; b.Resource != "filer.rx" || b.Kind != "network" {
			t.Fatalf("round %d: bottleneck = %+v, want the link filer.rx", r, b)
		}
	}
}

func TestMetricsFromSnapshotEmpty(t *testing.T) {
	m := MetricsFromSnapshot(obs.NewRegistry(nil).Snapshot())
	if len(m.RecentJobs) != 0 || m.CrossDomain || m.DeadNodes != 0 {
		t.Errorf("empty registry produced %+v", m)
	}
	if m.Report.Bottleneck.Kind != "cpu" {
		t.Errorf("empty bottleneck = %+v", m.Report.Bottleneck)
	}
	if New().Evaluate(m) != nil {
		t.Error("empty registry produced recommendations")
	}
}

// TestEvaluateSnapshotReplay pins the API contract: a tuner decision is
// reproducible from the registry snapshot alone, so a snapshot decoded
// from its JSON export yields the same recommendations as the live one.
func TestEvaluateSnapshotReplay(t *testing.T) {
	snap := faultyRegistry().Snapshot()
	tn := New()
	live := tn.Evaluate(MetricsFromSnapshot(snap))
	dec, err := obs.DecodeSnapshot([]byte(snap.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if replayed := tn.Evaluate(MetricsFromSnapshot(dec)); !reflect.DeepEqual(live, replayed) {
		t.Errorf("decoded snapshot gave %v, live snapshot %v", replayed, live)
	}

	// The faulty registry must trip the repair, consolidation, sort-buffer
	// and speculation rules.
	want := []Action{ActionRepairReplica, ActionConsolidate, ActionIncreaseSortBuf, ActionEnableSpec}
	if got := actions(live); !reflect.DeepEqual(got, want) {
		t.Errorf("actions = %v, want %v", got, want)
	}
}

func TestTunerOptions(t *testing.T) {
	th := DefaultThresholds()
	th.NetworkHot = 0.99
	if got := New(WithThresholds(th)).Thresholds.NetworkHot; got != 0.99 {
		t.Errorf("WithThresholds: NetworkHot = %g", got)
	}
	if got := New().Thresholds; got != DefaultThresholds() {
		t.Errorf("New() thresholds = %+v", got)
	}

	// A custom rule runs after the built-in set.
	custom := Recommendation{Action: Action("custom"), Reason: "always"}
	tn := New(WithRule(func(m Metrics) []Recommendation {
		return []Recommendation{custom}
	}))
	recs := tn.Evaluate(baseMetrics())
	if len(recs) != 1 || recs[0] != custom {
		t.Errorf("custom rule on healthy metrics: %v", recs)
	}
	m := baseMetrics()
	m.DeadNodes = 1
	recs = tn.Evaluate(m)
	if want := []Action{ActionRepairReplica, "custom"}; !reflect.DeepEqual(actions(recs), want) {
		t.Errorf("rule ordering = %v, want %v", actions(recs), want)
	}
}
