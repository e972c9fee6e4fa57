package xen

import (
	"fmt"

	"vhadoop/internal/nfs"
	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
)

// Config carries the virtualization layer's tunables.
type Config struct {
	// CPUQuantum is the VCPU scheduling quantum in core-seconds. Smaller
	// values track contention changes more precisely at the cost of more
	// simulation events.
	CPUQuantum float64
	// IdleDirtyRate is the page-dirty rate of an idle guest (bytes/s).
	IdleDirtyRate float64
	// BootTime is the guest OS boot time once the image is available.
	BootTime sim.Time
	// ImageBytes is the VM image size streamed from NFS on first boot.
	ImageBytes float64
}

// DefaultConfig mirrors the paper's testbed software stack (CentOS dom0,
// Ubuntu 8.10 guests, Xen 3.4).
func DefaultConfig() Config {
	return Config{
		CPUQuantum:    0.25,
		IdleDirtyRate: 2e6,
		BootTime:      20,
		ImageBytes:    1.5e9,
	}
}

// Manager is the cluster-wide virtualization control plane (the role xend +
// the platform's Virtualization Module play in the paper): it creates VMs on
// machines, boots them from NFS images and live-migrates them.
type Manager struct {
	engine *sim.Engine
	topo   *phys.Topology
	nfs    *nfs.Server
	cfg    Config
	vms    []*VM
	freeIO *IOProc // records Wait has finished with, linked through next

	obs   *obs.Plane // nil outside core.NewPlatform; every use is guarded
	instr *instruments
}

// NewManager returns a manager over the given topology and filer.
func NewManager(topo *phys.Topology, filer *nfs.Server, cfg Config) *Manager {
	if cfg.CPUQuantum <= 0 {
		panic("xen: CPUQuantum must be positive")
	}
	return &Manager{engine: topo.Engine(), topo: topo, nfs: filer, cfg: cfg}
}

// Engine returns the simulation engine.
func (m *Manager) Engine() *sim.Engine { return m.engine }

// Define creates a VM on host with the given memory, reserving DRAM. The VM
// is immediately runnable; use Boot to additionally charge image-fetch and
// guest boot time.
func (m *Manager) Define(name string, memBytes float64, host *phys.Machine) (*VM, error) {
	if err := host.ReserveMem(memBytes); err != nil {
		return nil, fmt.Errorf("xen: define %s: %w", name, err)
	}
	vm := &VM{
		Name:     name,
		MemBytes: memBytes,
		mgr:      m,
		host:     host,
		gate:     sim.NewGate(m.engine, true),
		vcpu:     sim.NewQueue(m.engine, 1),
		state:    StateRunning,
	}
	m.vms = append(m.vms, vm)
	return vm, nil
}

// MustDefine is Define that panics on placement failure. Only tests call
// it: the xen, hdfs and mapreduce testbeds define their VMs with it.
func (m *Manager) MustDefine(name string, memBytes float64, host *phys.Machine) *VM {
	vm, err := m.Define(name, memBytes, host)
	if err != nil {
		panic(err)
	}
	return vm
}

// Boot charges the cost of streaming the VM image from the NFS filer to the
// host and booting the guest OS. VMs booting on the same host contend on the
// filer's disk and the host NIC, which is what makes large virtual clusters
// slow to start in lockstep.
func (m *Manager) Boot(p *sim.Proc, vm *VM) {
	img := m.nfs.Read(vm.host, m.cfg.ImageBytes)
	img.Wait(p)
	p.Sleep(m.cfg.BootTime)
}

// CrashMachine fails a physical machine and crashes every VM resident on it
// — the correlated failure mode specific to virtualized clusters, where one
// host loss takes a whole rack-worth of co-resident datanodes and
// tasktrackers with it. Returns the VMs crashed, in creation order.
func (m *Manager) CrashMachine(pm *phys.Machine) []*VM {
	pm.Fail()
	var crashed []*VM
	for _, vm := range m.vms {
		if vm.host == pm && vm.state != StateCrashed && vm.state != StateShutdown {
			vm.Crash()
			crashed = append(crashed, vm)
		}
	}
	if len(crashed) > 0 {
		if m.instr != nil {
			m.instr.machineCrashes.Inc()
		}
		m.obs.Eventf(obs.KindCluster, "machine %s failed, crashed %d VMs", pm.Name, len(crashed))
	}
	return crashed
}
