// Package nmon is the monitoring module of the vHadoop platform: the
// equivalent of running the nmon system monitor inside every VM plus the
// nmon analyser over the collected files. A Monitor samples each watched
// VM's CPU, virtual-disk and network activity (and the shared physical
// resources) on a fixed interval; the analyser summarises the series and
// names the platform bottleneck, which is what the paper's MapReduce Tuner
// consumes.
package nmon

import (
	"fmt"
	"io"
	"sort"

	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
	"vhadoop/internal/xen"
)

// Sample is one per-VM measurement interval.
type Sample struct {
	T            sim.Time
	CPU          float64 // VCPU utilisation in [0,1]
	DiskReadBps  float64
	DiskWriteBps float64
	NetTxBps     float64
	NetRxBps     float64
}

// Series is the samples collected for one VM.
type Series struct {
	VM      string
	Samples []Sample
}

// vmCounters snapshots a VM's cumulative counters.
type vmCounters struct {
	cpu, dr, dw, tx, rx float64
}

func snapshot(vm *xen.VM) vmCounters {
	return vmCounters{
		cpu: vm.CPUUsed(),
		dr:  vm.DiskRead(),
		dw:  vm.DiskWrite(),
		tx:  vm.NetSent(),
		rx:  vm.NetRecv(),
	}
}

// LinkSample is one measurement of a shared fabric link.
type LinkSample struct {
	T    sim.Time
	Util float64 // instantaneous allocated fraction
}

// Monitor samples watched VMs and links until stopped.
type Monitor struct {
	engine   *sim.Engine
	interval sim.Time
	plane    *obs.Plane

	vms     []*xen.VM
	last    map[*xen.VM]vmCounters
	series  map[*xen.VM]*Series
	links   []*vnet.Link
	linkS   map[*vnet.Link][]LinkSample
	disks   []*sim.FairShare
	diskS   map[*sim.FairShare][]LinkSample
	events  []Event
	stopped bool
	started bool

	samples     *obs.Counter
	annotations *obs.Counter
}

// Option configures a Monitor at construction.
type Option func(*Monitor)

// WithInterval sets the sampling period (default 5 virtual seconds).
func WithInterval(interval sim.Time) Option {
	return func(m *Monitor) { m.interval = interval }
}

// WithPlane publishes the monitor's summaries into the plane's metrics
// registry: before every snapshot the nmon_* mean-utilisation gauges are
// refreshed, which is what lets the Tuner consume monitoring data
// through an obs.Snapshot instead of reaching into Monitor internals.
func WithPlane(pl *obs.Plane) Option {
	return func(m *Monitor) { m.plane = pl }
}

// New creates a monitor on the engine; configure it with options
// (sampling every 5 virtual seconds by default).
func New(e *sim.Engine, opts ...Option) *Monitor {
	m := &Monitor{
		engine:   e,
		interval: 5,
		last:     make(map[*xen.VM]vmCounters),
		series:   make(map[*xen.VM]*Series),
		linkS:    make(map[*vnet.Link][]LinkSample),
		diskS:    make(map[*sim.FairShare][]LinkSample),
	}
	for _, o := range opts {
		o(m)
	}
	if m.interval <= 0 {
		panic("nmon: interval must be positive")
	}
	if m.plane != nil {
		m.samples = m.plane.Counter("nmon_samples_total")
		m.annotations = m.plane.Counter("nmon_annotations_total")
		m.plane.Registry().OnCollect(m.publish)
	}
	return m
}

// publish refreshes the nmon_* gauges from the collected series — the
// monitor's registry face, run before every registry snapshot.
func (m *Monitor) publish() {
	pl := m.plane
	for _, vm := range m.vms {
		s := m.series[vm].Summarize()
		pl.Gauge("nmon_vm_cpu_mean", "vm", s.VM).Set(s.MeanCPU)
		pl.Gauge("nmon_vm_cpu_peak", "vm", s.VM).Set(s.PeakCPU)
		pl.Gauge("nmon_vm_disk_bps_mean", "vm", s.VM).Set(s.MeanDiskBps)
		pl.Gauge("nmon_vm_net_bps_mean", "vm", s.VM).Set(s.MeanNetBps)
	}
	for _, l := range m.links {
		pl.Gauge("nmon_link_util_mean", "link", l.Name()).Set(meanUtil(m.linkS[l]))
	}
	for _, d := range m.disks {
		pl.Gauge("nmon_disk_util_mean", "disk", d.Name()).Set(meanUtil(m.diskS[d]))
	}
}

// Watch registers a VM for sampling (before Start).
func (m *Monitor) Watch(vm *xen.VM) {
	m.vms = append(m.vms, vm)
	m.series[vm] = &Series{VM: vm.Name}
	m.last[vm] = snapshot(vm)
}

// WatchLink registers a fabric link (NICs, bridges) for sampling.
func (m *Monitor) WatchLink(l *vnet.Link) {
	m.links = append(m.links, l)
}

// WatchDisk registers a disk resource (the NFS filer's, typically).
func (m *Monitor) WatchDisk(d *sim.FairShare) {
	m.disks = append(m.disks, d)
}

// WatchMachine registers a machine's NICs and bridge.
func (m *Monitor) WatchMachine(pm *phys.Machine) {
	m.WatchLink(pm.NICTx)
	m.WatchLink(pm.NICRx)
	m.WatchLink(pm.Bridge)
	m.WatchDisk(pm.Disk)
}

// Start launches the sampling daemon, a timer chain that samples every
// interval. Stop ends it.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	var tick func()
	arm := func() {
		if !m.stopped {
			m.engine.After(m.interval, tick)
		}
	}
	tick = func() {
		m.sample(m.engine.Now())
		arm()
	}
	m.engine.At(m.engine.Now(), arm)
}

// Stop ends sampling after the current interval.
func (m *Monitor) Stop() { m.stopped = true }

func (m *Monitor) sample(now sim.Time) {
	for _, vm := range m.vms {
		cur := snapshot(vm)
		prev := m.last[vm]
		m.last[vm] = cur
		dt := m.interval
		m.series[vm].Samples = append(m.series[vm].Samples, Sample{
			T:            now,
			CPU:          clamp01((cur.cpu - prev.cpu) / dt),
			DiskReadBps:  (cur.dr - prev.dr) / dt,
			DiskWriteBps: (cur.dw - prev.dw) / dt,
			NetTxBps:     (cur.tx - prev.tx) / dt,
			NetRxBps:     (cur.rx - prev.rx) / dt,
		})
	}
	for _, l := range m.links {
		m.linkS[l] = append(m.linkS[l], LinkSample{T: now, Util: l.Utilization()})
	}
	for _, d := range m.disks {
		m.diskS[d] = append(m.diskS[d], LinkSample{T: now, Util: clamp01(d.Utilization())})
	}
	m.samples.Inc()
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Event is a timestamped annotation interleaved with the sample series —
// fault injections, recoveries and other experiment milestones, the
// equivalent of nmon's recording-marker snapshots.
type Event struct {
	T     sim.Time
	Label string
}

// Annotate records a labelled event at the current virtual time.
func (m *Monitor) Annotate(label string) {
	m.events = append(m.events, Event{T: m.engine.Now(), Label: label})
	m.annotations.Inc()
}

// Events returns all annotations in recording order.
func (m *Monitor) Events() []Event { return m.events }

// VMSummary aggregates one VM's series.
type VMSummary struct {
	VM               string
	MeanCPU, PeakCPU float64
	MeanDiskBps      float64
	MeanNetBps       float64
	Samples          int
}

// Summarize aggregates a series.
func (s *Series) Summarize() VMSummary {
	out := VMSummary{VM: s.VM, Samples: len(s.Samples)}
	if len(s.Samples) == 0 {
		return out
	}
	for _, smp := range s.Samples {
		out.MeanCPU += smp.CPU
		if smp.CPU > out.PeakCPU {
			out.PeakCPU = smp.CPU
		}
		out.MeanDiskBps += smp.DiskReadBps + smp.DiskWriteBps
		out.MeanNetBps += smp.NetTxBps + smp.NetRxBps
	}
	n := float64(len(s.Samples))
	out.MeanCPU /= n
	out.MeanDiskBps /= n
	out.MeanNetBps /= n
	return out
}

// Bottleneck identifies the busiest shared resource.
type Bottleneck struct {
	Resource string // e.g. "pm1.tx", "filer.disk", "vm-cpu"
	Kind     string // "network", "disk" or "cpu"
	MeanUtil float64
}

// Report is the analyser's output.
type Report struct {
	VMs        []VMSummary
	Links      map[string]float64 // mean utilisation per watched link
	Disks      map[string]float64
	Events     []Event // fault injections and other annotations
	Bottleneck Bottleneck
}

// Analyze summarises everything sampled so far and names the bottleneck:
// the shared resource (link, disk or the VM CPU population) with the highest
// mean utilisation.
func (m *Monitor) Analyze() Report {
	rep := Report{
		Links:  make(map[string]float64),
		Disks:  make(map[string]float64),
		Events: m.events,
	}
	var cpuMean float64
	for _, vm := range m.vms {
		s := m.series[vm].Summarize()
		rep.VMs = append(rep.VMs, s)
		cpuMean += s.MeanCPU
	}
	if len(rep.VMs) > 0 {
		cpuMean /= float64(len(rep.VMs))
	}
	for _, l := range m.links {
		rep.Links[l.Name()] = meanUtil(m.linkS[l])
	}
	for _, d := range m.disks {
		rep.Disks[d.Name()] = meanUtil(m.diskS[d])
	}
	rep.Bottleneck = BottleneckOf(cpuMean, rep.Links, rep.Disks)
	return rep
}

// BottleneckOf names the busiest shared resource given the mean VM CPU
// utilisation and per-link/per-disk mean utilisations. Resources are
// compared in sorted-name order with a strict greater-than, so the
// result is deterministic regardless of how the maps were built — the
// same rule whether the inputs come from a live Monitor (Analyze) or
// from a registry snapshot (tuner.MetricsFromSnapshot).
func BottleneckOf(cpuMean float64, links, disks map[string]float64) Bottleneck {
	best := Bottleneck{Resource: "vm-cpu", Kind: "cpu", MeanUtil: cpuMean}
	for _, name := range sortedKeys(links) {
		if u := links[name]; u > best.MeanUtil {
			best = Bottleneck{Resource: name, Kind: "network", MeanUtil: u}
		}
	}
	for _, name := range sortedKeys(disks) {
		if u := disks[name]; u > best.MeanUtil {
			best = Bottleneck{Resource: name, Kind: "disk", MeanUtil: u}
		}
	}
	return best
}

// sortedKeys is the blessed map-iteration idiom: collect, sort, range.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func meanUtil(samples []LinkSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range samples {
		s += x.Util
	}
	return s / float64(len(samples))
}

// WriteCSV dumps every VM series in nmon's spreadsheet-friendly format,
// with annotation events as comment lines up front.
func (m *Monitor) WriteCSV(w io.Writer) error {
	for _, ev := range m.events {
		if _, err := fmt.Fprintf(w, "# %.2f %s\n", ev.T, ev.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "vm,t,cpu,disk_read_bps,disk_write_bps,net_tx_bps,net_rx_bps"); err != nil {
		return err
	}
	names := make([]string, 0, len(m.vms))
	byName := make(map[string]*Series)
	for _, vm := range m.vms {
		names = append(names, vm.Name)
		byName[vm.Name] = m.series[vm]
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range byName[name].Samples {
			if _, err := fmt.Fprintf(w, "%s,%.2f,%.4f,%.0f,%.0f,%.0f,%.0f\n",
				name, s.T, s.CPU, s.DiskReadBps, s.DiskWriteBps, s.NetTxBps, s.NetRxBps); err != nil {
				return err
			}
		}
	}
	return nil
}
