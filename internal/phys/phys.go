// Package phys models the physical testbed of the vHadoop paper: Dell T710
// servers (2× quad-core Xeon E5620 with hyper-threading, 32 GB DRAM, local
// SATA disk, 1 Gb/s NIC) joined by a gigabit switch, plus a separate NFS
// filer. Each machine contributes a CPU pool (a fair-share resource driven
// by the Xen credit scheduler in internal/xen), a local disk, a virtual
// bridge link for intra-machine VM traffic and NIC transmit/receive links
// for cross-machine traffic.
package phys

import (
	"fmt"
	"math"

	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

// MachineSpec describes one physical machine's hardware.
type MachineSpec struct {
	Cores     int     // schedulable CPUs (hyper-threads count)
	DRAMBytes float64 // physical memory
	DiskBW    float64 // local disk bandwidth, bytes/s
	NICBW     float64 // NIC line rate each direction, bytes/s
	NICLat    sim.Time
	BridgeBW  float64 // intra-machine virtual bridge bandwidth, bytes/s
	BridgeLat sim.Time
	// NICDuplexFactor caps combined tx+rx throughput as a multiple of the
	// line rate: Xen-era dom0 netback processing could not sustain full
	// duplex gigabit (Cherkasova & Gardner, USENIX '05). 0 defaults to 1.0
	// (roughly line rate for tx+rx combined through the bridge/netback).
	NICDuplexFactor float64
	// MemBW is the rate at which dom0 serves page-cache hits (bytes/s).
	// 0 defaults to 8 GB/s (DDR3 multi-channel).
	MemBW float64
	// StorNICBW is the storage/management NIC line rate (bytes/s). The
	// testbed's servers have multiple GbE ports: guest traffic is bridged
	// over one, while dom0's NFS client and live migration use another.
	// 0 defaults to NICBW.
	StorNICBW  float64
	StorNICLat sim.Time
}

// Machine is one physical server.
type Machine struct {
	Name string
	Spec MachineSpec

	CPU  *sim.FairShare // capacity = Cores, per-job cap = 1 core
	Disk *sim.FairShare // local disk, bytes/s

	Bridge  *vnet.Link // intra-machine VM-to-VM segment
	NICTx   *vnet.Link // machine -> switch
	NICRx   *vnet.Link // switch -> machine
	NICProc *vnet.Link // shared netback processing: combined tx+rx cap
	StorTx  *vnet.Link // storage/management NIC: machine -> switch
	StorRx  *vnet.Link // storage/management NIC: switch -> machine

	MemBus *sim.FairShare // dom0 page-cache service rate
	Cache  *PageCache     // dom0 NFS-client page cache

	memInUse float64 // bytes of DRAM committed to VMs
	failed   bool    // whole-host failure (power loss, hypervisor panic)

	id     int        // index in the topology's machines
	routes []routeSet // by destination id, filled on first use
}

// PageCache is the dom0 NFS-client page cache: recently written or read
// file data is served from host memory instead of the filer, with FIFO
// eviction. This is what makes a freshly-written HDFS data set fast to
// re-read on the same physical machine — and what a cross-domain cluster
// loses whenever a replica lives on the other machine. It is keyed by HDFS
// block id; no block has id 0, which callers pass to bypass the cache.
type PageCache struct {
	capacity, used float64
	// entries[id] is block id's entry, grown to the highest id inserted.
	// The cached entries form a doubly linked list from head to tail,
	// oldest insert first; id 0 ends it.
	entries    []cacheEntry
	head, tail uint32
}

type cacheEntry struct {
	bytes      float64
	prev, next uint32
	cached     bool
}

// NewPageCache returns an empty cache of the given capacity.
func NewPageCache(capacity float64) *PageCache {
	return &PageCache{capacity: capacity}
}

// Contains reports whether block id is cached.
func (c *PageCache) Contains(id uint64) bool {
	return id < uint64(len(c.entries)) && c.entries[id].cached
}

// Insert caches block id with the given size as the newest entry, evicting
// the oldest entries to fit; a re-insert of a cached id counts as a new
// insert. Entries larger than the whole cache are not cached. Id 0, which
// means "no caching", and ids beyond 32 bits panic.
func (c *PageCache) Insert(id uint64, bytes float64) {
	if id == 0 || id > math.MaxUint32 {
		panic(fmt.Sprintf("phys: page-cache insert of block id %d", id))
	}
	if bytes > c.capacity {
		return
	}
	if n := int(id) + 1; n > len(c.entries) {
		c.entries = append(c.entries, make([]cacheEntry, n-len(c.entries))...)
	}
	k := uint32(id)
	if c.entries[k].cached {
		c.used -= c.entries[k].bytes
		c.unlink(k)
	}
	for c.used+bytes > c.capacity && c.head != 0 {
		c.used -= c.entries[c.head].bytes
		c.unlink(c.head)
	}
	c.entries[k] = cacheEntry{bytes: bytes, prev: c.tail, cached: true}
	if c.tail != 0 {
		c.entries[c.tail].next = k
	} else {
		c.head = k
	}
	c.tail = k
	c.used += bytes
}

// unlink takes cached entry k out of the list and clears it.
func (c *PageCache) unlink(k uint32) {
	e := c.entries[k]
	if e.prev != 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	c.entries[k] = cacheEntry{}
}

// MemFree returns uncommitted DRAM in bytes.
func (m *Machine) MemFree() float64 { return m.Spec.DRAMBytes - m.memInUse }

// Fail marks the machine as failed (power loss, hypervisor panic). A failed
// machine accepts no new VM placements; the virtualization layer is
// responsible for crashing the VMs resident at failure time (see
// xen.Manager.CrashMachine). There is no repair: a failed host stays failed
// for the rest of the simulation, as in the paper's testbed failure model.
func (m *Machine) Fail() { m.failed = true }

// Failed reports whether the machine has suffered a whole-host failure.
func (m *Machine) Failed() bool { return m.failed }

// ReserveMem commits bytes of DRAM to a VM, failing if it does not fit or
// if the machine itself has failed.
func (m *Machine) ReserveMem(bytes float64) error {
	if m.failed {
		return fmt.Errorf("phys: %s: machine has failed", m.Name)
	}
	if bytes > m.MemFree() {
		return fmt.Errorf("phys: %s: cannot reserve %.0f bytes, %.0f free", m.Name, bytes, m.MemFree())
	}
	m.memInUse += bytes
	return nil
}

// ReleaseMem returns bytes of DRAM to the free pool.
func (m *Machine) ReleaseMem(bytes float64) {
	m.memInUse -= bytes
	if m.memInUse < 0 {
		panic("phys: memory over-released on " + m.Name)
	}
}

func (m *Machine) String() string { return m.Name }

// Topology is the set of machines plus the switch joining them.
type Topology struct {
	engine   *sim.Engine
	fabric   *vnet.Fabric
	machines []*Machine
	backbone *vnet.Link // switch backplane (not normally the bottleneck)
}

// routeSet holds the cached routes from one machine to another; links
// never change once a machine is added, so each route is built on first use
// and shared by every later flow between the same machines.
type routeSet struct {
	guest, host *vnet.Route
	// relay is indexed by the final guest's machine: the set's source is
	// the filer, its destination the host that relays.
	relay []*vnet.Route
}

// routesTo returns m's cached routes to dst.
func (m *Machine) routesTo(dst *Machine) *routeSet {
	if n := dst.id + 1; n > len(m.routes) {
		m.routes = append(m.routes, make([]routeSet, n-len(m.routes))...)
	}
	return &m.routes[dst.id]
}

// NewTopology creates an empty topology with a switch backplane of the given
// aggregate bandwidth.
func NewTopology(e *sim.Engine, fabric *vnet.Fabric, backboneBW float64, backboneLat sim.Time) *Topology {
	return &Topology{
		engine:   e,
		fabric:   fabric,
		backbone: fabric.NewLink("switch", backboneBW, backboneLat),
	}
}

// Engine returns the simulation engine.
func (t *Topology) Engine() *sim.Engine { return t.engine }

// Fabric returns the network fabric.
func (t *Topology) Fabric() *vnet.Fabric { return t.fabric }

// AddMachine creates a machine with the given spec and attaches it to the
// switch.
func (t *Topology) AddMachine(name string, spec MachineSpec) *Machine {
	duplex := spec.NICDuplexFactor
	if duplex <= 0 {
		duplex = 1.0
	}
	memBW := spec.MemBW
	if memBW <= 0 {
		memBW = 8e9
	}
	storBW := spec.StorNICBW
	if storBW <= 0 {
		storBW = spec.NICBW
	}
	storLat := spec.StorNICLat
	if storLat <= 0 {
		storLat = spec.NICLat
	}
	m := &Machine{
		Name:    name,
		Spec:    spec,
		CPU:     sim.NewFairShare(t.engine, name+".cpu", float64(spec.Cores), 1),
		Disk:    sim.NewFairShare(t.engine, name+".disk", spec.DiskBW, 0),
		Bridge:  t.fabric.NewLink(name+".bridge", spec.BridgeBW, spec.BridgeLat),
		NICTx:   t.fabric.NewLink(name+".tx", spec.NICBW, spec.NICLat),
		NICRx:   t.fabric.NewLink(name+".rx", spec.NICBW, spec.NICLat),
		NICProc: t.fabric.NewLink(name+".nicproc", spec.NICBW*duplex, 0),
		StorTx:  t.fabric.NewLink(name+".stor.tx", storBW, storLat),
		StorRx:  t.fabric.NewLink(name+".stor.rx", storBW, storLat),
		MemBus:  sim.NewFairShare(t.engine, name+".membus", memBW, 0),
		Cache:   NewPageCache(spec.DRAMBytes / 2),
		id:      len(t.machines),
	}
	t.machines = append(t.machines, m)
	return m
}

// Machines returns all machines in creation order.
func (t *Topology) Machines() []*Machine { return t.machines }

// Path returns the route for guest traffic from src to dst. Intra-machine
// traffic crosses only the virtual bridge; cross-machine traffic crosses the
// source bridge, the source NIC, the switch, the destination NIC and the
// destination bridge.
func (t *Topology) Path(src, dst *Machine) *vnet.Route {
	rs := src.routesTo(dst)
	if rs.guest == nil {
		if src == dst {
			rs.guest = t.fabric.NewRoute(src.Bridge)
		} else {
			rs.guest = t.fabric.NewRoute(
				src.Bridge, src.NICTx, src.NICProc, t.backbone,
				dst.NICProc, dst.NICRx, dst.Bridge)
		}
	}
	return rs.guest
}

// HostPath returns the route for dom0-level traffic — the NFS client moving
// VM disk blocks, image fetches and live migration — which rides the
// dedicated storage/management NIC, not the guest bridge: a VM reaches its
// own dom0 through a hypercall, and dom0 kernel TCP needs no netback
// processing. It is nil when src == dst.
func (t *Topology) HostPath(src, dst *Machine) *vnet.Route {
	if src == dst {
		return nil
	}
	rs := src.routesTo(dst)
	if rs.host == nil {
		rs.host = t.fabric.NewRoute(src.StorTx, t.backbone, dst.StorRx)
	}
	return rs.host
}

// RelayPath returns the route of a disk block relayed from the filer
// through host's dom0 to a guest on dst: HostPath(filer, host) followed by
// Path(host, dst).
func (t *Topology) RelayPath(filer, host, dst *Machine) *vnet.Route {
	rs := filer.routesTo(host)
	if n := dst.id + 1; n > len(rs.relay) {
		rs.relay = append(rs.relay, make([]*vnet.Route, n-len(rs.relay))...)
	}
	if r := rs.relay[dst.id]; r != nil {
		return r
	}
	var links []*vnet.Link
	if hp := t.HostPath(filer, host); hp != nil {
		links = append(links, hp.Links()...)
	}
	links = append(links, t.Path(host, dst).Links()...)
	r := t.fabric.NewRoute(links...)
	// Building may have grown filer's routes (when host is the filer), so
	// look the set up again.
	filer.routesTo(host).relay[dst.id] = r
	return r
}
