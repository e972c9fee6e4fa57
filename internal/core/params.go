// Package core is the vHadoop platform itself: it wires the paper's
// Virtualization Module (internal/xen over internal/phys, internal/vnet and
// internal/nfs) to its Hadoop Module (internal/hdfs + internal/mapreduce),
// attaches the observability plane (internal/obs), and provisions hadoop
// virtual clusters in the paper's two layouts: normal (all VMs on one
// physical machine) and cross-domain (VMs split across two). The other
// modules — the Machine Learning Algorithm Library (internal/clustering),
// the nmon Monitor (internal/nmon) and the MapReduce Tuner (internal/tuner)
// — run on a provisioned Platform; core imports none of them.
package core

import (
	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// Params is the hardware calibration of the simulated testbed. Defaults
// mirror the paper's Dell T710 servers: 2x quad-core Xeon E5620 (16
// hyper-threads), 32 GB DRAM, gigabit NICs and a separate NFS filer holding
// every VM image.
type Params struct {
	Cores      int
	DRAMBytes  float64
	LocalDisk  float64 // dom0-local disk bandwidth (B/s)
	NICBW      float64 // gigabit effective (B/s)
	NICLat     sim.Time
	BridgeBW   float64 // intra-machine virtual bridge (B/s)
	BridgeLat  sim.Time
	SwitchBW   float64 // switch backplane (B/s)
	SwitchLat  sim.Time
	FilerNIC   float64 // NFS filer NIC (bonded pair)
	FilerDisk  float64 // NFS filer disk array (B/s)
	FilerCores int
}

// DefaultParams returns the testbed calibration NewPlatform builds every
// platform on.
func DefaultParams() Params {
	return Params{
		Cores:      16,
		DRAMBytes:  32e9,
		LocalDisk:  90e6,
		NICBW:      119e6, // ~1 Gb/s after protocol overhead
		NICLat:     0.0001,
		BridgeBW:   1e9, // intra-host netback switching, ~8 Gb/s aggregate
		BridgeLat:  0.00002,
		SwitchBW:   10e9,
		SwitchLat:  0.00001,
		FilerNIC:   150e6, // bonded filer uplink, keeps pace with the array
		FilerDisk:  150e6,
		FilerCores: 8,
	}
}

// Layout is how the virtual cluster maps onto physical machines.
type Layout int

// Cluster layouts from the paper's static performance study.
const (
	// Normal packs every VM onto one physical machine.
	Normal Layout = iota
	// CrossDomain distributes the VMs equally across two machines.
	CrossDomain
)

func (l Layout) String() string {
	if l == Normal {
		return "normal"
	}
	return "cross-domain"
}

// Options configures one provisioned hadoop virtual cluster.
type Options struct {
	Seed       int64
	Nodes      int // total VMs: 1 namenode/jobtracker + N-1 workers
	Layout     Layout
	VMMemBytes float64 // per-VM memory (512 MB or 1024 MB in the paper)
	HDFS       hdfs.Config
	MR         mapreduce.Config
	Migration  xen.MigrationConfig
}

// DefaultOptions returns the paper's standard 16-node, 1 GiB-VM cluster in
// the normal layout.
func DefaultOptions() Options {
	return Options{
		Seed:       1,
		Nodes:      16,
		Layout:     Normal,
		VMMemBytes: 1024e6,
		HDFS:       hdfs.DefaultConfig(),
		MR:         mapreduce.DefaultConfig(),
		Migration:  xen.DefaultMigrationConfig(),
	}
}

// machineSpec converts Params to a phys.MachineSpec for compute machines.
func (p Params) machineSpec() phys.MachineSpec {
	return phys.MachineSpec{
		Cores:     p.Cores,
		DRAMBytes: p.DRAMBytes,
		DiskBW:    p.LocalDisk,
		NICBW:     p.NICBW,
		NICLat:    p.NICLat,
		BridgeBW:  p.BridgeBW,
		BridgeLat: p.BridgeLat,
	}
}

// filerSpec converts Params to the NFS filer's machine spec.
func (p Params) filerSpec() phys.MachineSpec {
	return phys.MachineSpec{
		Cores:     p.FilerCores,
		DRAMBytes: p.DRAMBytes,
		DiskBW:    p.FilerDisk,
		NICBW:     p.FilerNIC,
		NICLat:    p.NICLat,
		BridgeBW:  p.BridgeBW,
		BridgeLat: p.BridgeLat,
	}
}
