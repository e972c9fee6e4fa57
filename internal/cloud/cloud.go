// Package cloud implements the paper's stated future work: "integrating the
// vHadoop platform to open source cloud computing system to provide scalable
// on-demand computation service for processing data-intensive (or big-data)
// applications with parallel machine learning algorithms" (§VI), i.e. the
// EC2-style flow its introduction motivates ("users can simply rent a hadoop
// virtual cluster ... to run the MapReduce tasks without purchasing
// expensive physical servers").
//
// A Service owns a pool of physical machines and provisions hadoop virtual
// clusters on demand: placement across the pool (packed or spread), VM
// booting from the NFS filer, HDFS/MapReduce daemon wiring, elastic
// scale-out and scale-in of running clusters (with HDFS re-replication when
// datanodes leave), and lease release that returns capacity to the pool.
package cloud

import (
	"errors"
	"fmt"

	"vhadoop/internal/hdfs"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/xen"
)

// ErrInsufficientCapacity means the pool cannot host the requested VMs.
var ErrInsufficientCapacity = errors.New("cloud: insufficient capacity")

// Placement selects how a cluster's VMs map onto the pool.
type Placement int

// Placement policies.
const (
	// Pack fills one machine before spilling to the next (the paper's
	// "normal" layout while capacity lasts).
	Pack Placement = iota
	// Spread round-robins VMs across the pool (cross-domain by design;
	// maximises per-cluster CPU headroom at the cost of network crossing).
	Spread
)

func (p Placement) String() string {
	if p == Pack {
		return "pack"
	}
	return "spread"
}

// Request describes one on-demand hadoop virtual cluster.
type Request struct {
	Name       string
	Nodes      int     // 1 master + Nodes-1 workers
	VMMemBytes float64 // per-VM memory
	Placement  Placement
	Boot       bool // charge image fetch + guest boot time
	HDFS       hdfs.Config
	MR         mapreduce.Config
}

// Lease is a provisioned, running hadoop virtual cluster.
type Lease struct {
	ID   int
	Name string

	VMs    []*xen.VM
	Master *xen.VM
	DFS    *hdfs.Cluster
	MR     *mapreduce.Cluster

	svc      *Service
	req      Request
	released bool
	nextVM   int
}

// Service provisions hadoop virtual clusters over a shared machine pool.
type Service struct {
	engine *sim.Engine
	mgr    *xen.Manager
	pool   []*phys.Machine
	leases []*Lease
	nextID int
}

// NewService creates a provisioning service over the pool.
func NewService(mgr *xen.Manager, pool []*phys.Machine) *Service {
	if len(pool) == 0 {
		panic("cloud: empty machine pool")
	}
	return &Service{engine: mgr.Engine(), mgr: mgr, pool: pool}
}

// ReleaseAll tears down every live lease — the teardown path that lets a
// simulation drain (each lease runs heartbeat daemons until released).
func (s *Service) ReleaseAll() {
	for _, l := range s.leases {
		l.Release()
	}
}

// placeVMs returns machine targets for n VMs of the given size, or an
// error when they cannot fit. It respects current reservations, and a
// failed machine has no free memory.
func (s *Service) placeVMs(n int, memBytes float64, policy Placement) ([]*phys.Machine, error) {
	free := make([]float64, len(s.pool))
	total := 0.0
	for i, pm := range s.pool {
		if !pm.Failed() {
			free[i] = pm.MemFree()
		}
		total += free[i]
	}
	if total < float64(n)*memBytes {
		return nil, fmt.Errorf("%w: need %.0f MB, %.0f MB free in pool",
			ErrInsufficientCapacity, float64(n)*memBytes/1e6, total/1e6)
	}
	targets := make([]*phys.Machine, 0, n)
	switch policy {
	case Pack:
		for i := range s.pool {
			for free[i] >= memBytes && len(targets) < n {
				targets = append(targets, s.pool[i])
				free[i] -= memBytes
			}
		}
	case Spread:
		for len(targets) < n {
			placed := false
			for i := range s.pool {
				if free[i] >= memBytes && len(targets) < n {
					targets = append(targets, s.pool[i])
					free[i] -= memBytes
					placed = true
				}
			}
			if !placed {
				break
			}
		}
	}
	if len(targets) < n {
		return nil, fmt.Errorf("%w: fragmentation prevents placing %d x %.0f MB VMs",
			ErrInsufficientCapacity, n, memBytes/1e6)
	}
	return targets, nil
}

// Provision creates, (optionally) boots and wires up a hadoop virtual
// cluster, returning its lease. Boot time is dominated by streaming VM
// images from the shared filer, so large clusters start slower — the
// "rapid startup" the paper credits virtualization with is rapid relative
// to racking servers, not free.
func (s *Service) Provision(p *sim.Proc, req Request) (*Lease, error) {
	if req.Nodes < 2 {
		return nil, fmt.Errorf("cloud: request %q needs at least 2 nodes", req.Name)
	}
	if req.VMMemBytes <= 0 {
		req.VMMemBytes = 1024e6
	}
	targets, err := s.placeVMs(req.Nodes, req.VMMemBytes, req.Placement)
	if err != nil {
		return nil, err
	}
	s.nextID++
	l := &Lease{ID: s.nextID, Name: req.Name, svc: s, req: req}
	for i, pm := range targets {
		vm, err := s.mgr.Define(fmt.Sprintf("%s-vm%02d", req.Name, i), req.VMMemBytes, pm)
		if err != nil {
			return nil, fmt.Errorf("cloud: provisioning %s: %w", req.Name, err)
		}
		l.VMs = append(l.VMs, vm)
		l.nextVM = i + 1
	}
	if req.Boot {
		boots := make([]*sim.Proc, len(l.VMs))
		for i, vm := range l.VMs {
			vm := vm
			boots[i] = s.engine.Spawn("boot:"+vm.Name, func(q *sim.Proc) {
				s.mgr.Boot(q, vm)
			})
		}
		if err := sim.WaitProcs(p, boots...); err != nil {
			return nil, fmt.Errorf("cloud: booting %s: %w", req.Name, err)
		}
	}
	l.Master = l.VMs[0]
	l.DFS = hdfs.NewCluster(req.HDFS, l.Master)
	for _, vm := range l.VMs[1:] {
		l.DFS.AddDatanode(vm)
	}
	l.MR = mapreduce.NewCluster(s.engine, req.MR, l.Master, l.DFS)
	for _, vm := range l.VMs[1:] {
		l.MR.AddTracker(vm)
	}
	l.MR.Start()
	s.leases = append(s.leases, l)
	return l, nil
}

// Released reports whether the lease has been torn down.
func (l *Lease) Released() bool { return l.released }

// Workers returns the lease's live worker VMs.
func (l *Lease) Workers() []*xen.VM {
	var out []*xen.VM
	for _, vm := range l.VMs[1:] {
		if vm.State() == xen.StateRunning || vm.State() == xen.StatePaused {
			out = append(out, vm)
		}
	}
	return out
}

// ScaleOut adds n worker VMs to the running cluster: place, (optionally)
// boot, join HDFS and the jobtracker. New trackers start pulling tasks at
// their first heartbeat.
func (l *Lease) ScaleOut(p *sim.Proc, n int) error {
	if l.released {
		return fmt.Errorf("cloud: lease %q already released", l.Name)
	}
	targets, err := l.svc.placeVMs(n, l.req.VMMemBytes, l.req.Placement)
	if err != nil {
		return err
	}
	var added []*xen.VM
	for _, pm := range targets {
		vm, err := l.svc.mgr.Define(fmt.Sprintf("%s-vm%02d", l.Name, l.nextVM), l.req.VMMemBytes, pm)
		if err != nil {
			return err
		}
		l.nextVM++
		added = append(added, vm)
	}
	if l.req.Boot {
		boots := make([]*sim.Proc, len(added))
		for i, vm := range added {
			vm := vm
			boots[i] = l.svc.engine.Spawn("boot:"+vm.Name, func(q *sim.Proc) {
				l.svc.mgr.Boot(q, vm)
			})
		}
		if err := sim.WaitProcs(p, boots...); err != nil {
			return err
		}
	}
	for _, vm := range added {
		l.VMs = append(l.VMs, vm)
		l.DFS.AddDatanode(vm)
		tr := l.MR.AddTracker(vm)
		l.MR.StartTracker(tr)
	}
	return nil
}

// ScaleIn removes the last n workers: their tasktrackers are decommissioned
// (in-flight tasks re-queue), their datanodes drain via re-replication, and
// the VMs shut down cleanly.
func (l *Lease) ScaleIn(p *sim.Proc, n int) error {
	if l.released {
		return fmt.Errorf("cloud: lease %q already released", l.Name)
	}
	workers := l.Workers()
	if n >= len(workers) {
		return fmt.Errorf("cloud: cannot remove %d of %d workers", n, len(workers))
	}
	victims := workers[len(workers)-n:]
	for _, vm := range victims {
		for _, tr := range l.MR.Trackers() {
			if tr.VM == vm {
				l.MR.DecommissionTracker(tr)
			}
		}
		if d := l.DFS.DatanodeOf(vm); d != nil {
			l.DFS.Decommission(d)
		}
	}
	// Drain: restore replication before the VMs (and their disks) go away.
	l.DFS.ReReplicate(p)
	for _, vm := range victims {
		vm.Shutdown()
	}
	return nil
}

// Release tears the cluster down and returns its capacity to the pool.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.MR.Stop()
	for _, vm := range l.VMs {
		vm.Shutdown()
	}
}
