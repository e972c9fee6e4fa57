package core

import (
	"fmt"

	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/nfs"
	"vhadoop/internal/obs"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
	"vhadoop/internal/xen"
)

// Platform is one provisioned hadoop virtual cluster plus the substrate it
// runs on. It is the programmatic face of vHadoop: experiments provision a
// platform, load data, run jobs or migrations, and read the results.
type Platform struct {
	Opts Options

	Engine *sim.Engine
	Obs    *obs.Plane
	Fabric *vnet.Fabric
	Topo   *phys.Topology
	NFS    *nfs.Server
	Xen    *xen.Manager

	PMs    []*phys.Machine // the two compute machines
	Filer  *phys.Machine
	VMs    []*xen.VM // VMs[0] is the master
	Master *xen.VM

	DFS *hdfs.Cluster
	MR  *mapreduce.Cluster

	// collectPlatform's gauge handles
	crossDomain *obs.Gauge
	clusterVMs  *obs.Gauge
}

// NewPlatform provisions a hadoop virtual cluster per opts: two physical
// machines plus the NFS filer; VMs packed on PM1 (normal layout) or split
// equally across PM1/PM2 (cross-domain); namenode + jobtracker on VMs[0] and
// datanode + tasktracker daemons on every other VM.
func NewPlatform(opts Options) (*Platform, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes (1 master + 1 worker), got %d", opts.Nodes)
	}
	e := sim.New(opts.Seed)
	plane := obs.New(e)
	fabric := vnet.NewFabric(e)
	params := DefaultParams()
	topo := phys.NewTopology(e, fabric, params.SwitchBW, params.SwitchLat)
	pm1 := topo.AddMachine("pm1", params.machineSpec())
	pm2 := topo.AddMachine("pm2", params.machineSpec())
	filer := topo.AddMachine("filer", params.filerSpec())
	server := nfs.NewServer(topo, filer)
	mgr := xen.NewManager(topo, server)

	pl := &Platform{
		Opts:   opts,
		Engine: e,
		Obs:    plane,
		Fabric: fabric,
		Topo:   topo,
		NFS:    server,
		Xen:    mgr,
		PMs:    []*phys.Machine{pm1, pm2},
		Filer:  filer,
	}

	for i := 0; i < opts.Nodes; i++ {
		host := pm1
		if opts.Layout == CrossDomain && i >= opts.Nodes/2 {
			host = pm2
		}
		vm, err := mgr.Define(fmt.Sprintf("vm%02d", i), opts.VMMemBytes, host)
		if err != nil {
			return nil, fmt.Errorf("core: provisioning node %d: %w", i, err)
		}
		pl.VMs = append(pl.VMs, vm)
	}
	pl.Master = pl.VMs[0]

	pl.DFS = hdfs.NewCluster(opts.HDFS, pl.Master)
	for _, vm := range pl.VMs[1:] {
		pl.DFS.AddDatanode(vm)
	}
	pl.MR = mapreduce.NewCluster(e, opts.MR, pl.Master, pl.DFS)
	for _, vm := range pl.VMs[1:] {
		pl.MR.AddTracker(vm)
	}
	mgr.SetObs(plane)
	pl.DFS.SetObs(plane)
	pl.MR.SetObs(plane)
	pl.crossDomain = plane.Gauge("cluster_cross_domain")
	pl.clusterVMs = plane.Gauge("cluster_vms")
	plane.Registry().OnCollect(pl.collectPlatform)
	return pl, nil
}

// collectPlatform refreshes the platform-level gauges before every
// registry snapshot: per-link fabric traffic and the cross-domain bit
// the tuner's migration rule keys off.
func (pl *Platform) collectPlatform() {
	for _, l := range pl.Fabric.Links() {
		pl.Obs.Gauge("vnet_link_bytes", "link", l.Name()).Set(l.BytesCarried())
		pl.Obs.Gauge("vnet_link_util_mean", "link", l.Name()).Set(l.MeanUtilization())
	}
	cross := 0.0
	for _, vm := range pl.VMs {
		if vm.Host() != pl.Master.Host() {
			cross = 1
			break
		}
	}
	pl.crossDomain.Set(cross)
	pl.clusterVMs.Set(float64(len(pl.VMs)))
}

// MustNewPlatform is NewPlatform that panics on error (experiment setup).
func MustNewPlatform(opts Options) *Platform {
	pl, err := NewPlatform(opts)
	if err != nil {
		panic(err)
	}
	return pl
}

// Workers returns the worker VMs (everything but the master).
func (pl *Platform) Workers() []*xen.VM { return pl.VMs[1:] }

// Run starts the cluster daemons (including the HDFS replication monitor
// when configured), runs driver as a simulated process, then stops the
// daemons and drains the simulation. It returns the driver's error and the
// final virtual time.
func (pl *Platform) Run(driver func(p *sim.Proc) error) (sim.Time, error) {
	pl.MR.Start()
	pl.DFS.StartReplicationMonitor(pl.Opts.HDFS.ReplMonitorInterval)
	var derr error
	d := pl.Engine.Spawn("driver", func(p *sim.Proc) {
		derr = driver(p)
	})
	pl.Engine.Spawn("terminator", func(p *sim.Proc) {
		d.Done().Wait(p)
		pl.MR.Stop()
		pl.DFS.StopReplicationMonitor()
	})
	end := pl.Engine.Run()
	if derr == nil && d.Err() != nil {
		derr = d.Err()
	}
	pl.Engine.Shutdown()
	return end, derr
}

// LoadText writes records as an HDFS input file of the given virtual size,
// uploading from the master VM (the paper's step 4: "input data is prepared
// by uploading to HDFS"). HDFS keeps records without copying them, so the
// caller must not modify the slice afterwards.
func (pl *Platform) LoadText(p *sim.Proc, name string, size float64, records []hdfs.Record) (*hdfs.File, error) {
	return pl.DFS.Write(p, pl.Master, name, size, records)
}
