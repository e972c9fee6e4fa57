// Package vnet models the data-centre network that connects physical
// machines, the NFS filer and — through per-machine virtual bridges — the
// virtual machines of a vHadoop cluster.
//
// The fabric is a set of Links (virtual bridge, NIC transmit/receive, switch
// backplane) with fixed capacities and latencies. A Route is a path of links
// built once — its links, their indices in the fabric's solver and their
// summed latency — and reused by every flow along it (internal/phys caches
// one per machine pair). Bulk data moves as flows, and Transfer is the one
// way to start one: the flow occupies a route while the calling process
// blocks, and whenever the flow population changes the fabric recomputes
// every flow's rate with max-min fair water-filling, the standard fluid
// approximation of TCP bandwidth sharing. A flow is one allocation, its
// solver activity and its completion latch together, and Transfer recycles
// it. A caller that overlaps a flow with other work (the NFS filer's disk
// stream) starts that work before the Transfer and waits on it after.
// This is what makes a shared 1 Gb/s NIC the bottleneck of a cross-domain
// Hadoop virtual cluster, exactly as the vHadoop paper observes.
//
// Small control messages (heartbeats, RPCs) take MessageDelay: propagation
// latency plus serialisation time, without contending with bulk flows —
// matching their negligible real bandwidth.
package vnet

import (
	"fmt"

	"vhadoop/internal/sim"
)

// Link is a unidirectional network segment with a capacity in bytes/second
// and a one-way propagation latency. It is one resource of its fabric's
// max-min solver.
type Link struct {
	name    string
	latency sim.Time
	fabric  *Fabric
	id      int // resource index in fabric.solver
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link capacity in bytes/second.
func (l *Link) Bandwidth() float64 { return l.fabric.solver.Capacity(l.id) }

// Utilization returns the instantaneous fraction of capacity allocated.
func (l *Link) Utilization() float64 { return l.fabric.solver.Utilization(l.id) }

// SetBandwidth retunes the link capacity mid-simulation (fault injection:
// degradation, or a partition modelled as a near-zero crawl). Flow progress
// is integrated at the old rates first, then every active flow is re-rated
// by a fresh water-filling pass. Bandwidth must stay positive: a zero-rate
// link would stall the fabric, so partitions use a small positive floor.
func (l *Link) SetBandwidth(bw float64) {
	if bw <= 0 {
		panic(fmt.Sprintf("vnet: link %q: bandwidth must be positive", l.name))
	}
	l.fabric.solver.SetCapacity(l.id, bw)
}

// MeanUtilization returns the time-averaged utilisation since creation,
// against the bandwidth the link had at each moment.
func (l *Link) MeanUtilization() float64 { return l.fabric.solver.MeanUtilization(l.id) }

// BytesCarried returns the cumulative bytes moved across this link.
func (l *Link) BytesCarried() float64 { return l.fabric.solver.Carried(l.id) }

// Route is a path of links computed once and reused by every flow along
// it: the links in order, their resource indices in the fabric's solver and
// their summed one-way latency.
type Route struct {
	fabric  *Fabric
	links   []*Link
	uses    []int
	latency sim.Time
}

// Links returns the route's links in order. The slice must not be
// modified.
func (r *Route) Links() []*Link { return r.links }

// flow is an in-flight bulk transfer along a route: its solver activity
// and its completion latch, in one allocation.
type flow struct {
	sim.Activity
	done sim.Done
	next *flow // free-list link, set only while the flow is on the list
}

// Fabric owns all links and active flows and performs rate allocation with
// one max-min solver whose resources are the links, in creation order.
type Fabric struct {
	engine     *sim.Engine
	solver     *sim.MaxMin
	links      []*Link
	flowsTotal int
	free       *flow // flows Transfer has finished with, linked through next
}

// NewFabric returns an empty fabric bound to e. Flows with a byte residue
// of 1e-6 are finished, and completions are at least 1e-9 s apart.
func NewFabric(e *sim.Engine) *Fabric {
	return &Fabric{engine: e, solver: sim.NewMaxMin(e, "vnet fabric", 1e-6, 1e-9)}
}

// NewLink creates a link and registers it with the fabric.
func (f *Fabric) NewLink(name string, bandwidth float64, latency sim.Time) *Link {
	if bandwidth <= 0 {
		panic("vnet: link bandwidth must be positive")
	}
	l := &Link{name: name, latency: latency, fabric: f, id: f.solver.AddResource(bandwidth)}
	f.links = append(f.links, l)
	return l
}

// Links returns all links in the fabric.
func (f *Fabric) Links() []*Link { return f.links }

// ActiveFlows returns the number of flows currently in flight. Only tests
// read it: TestLinkAccounting and TestNoLinkOversubscriptionProperty wait
// for the fabric to drain.
func (f *Fabric) ActiveFlows() int { return f.solver.Len() }

// FlowsStarted returns the cumulative number of flows ever started.
func (f *Fabric) FlowsStarted() int { return f.flowsTotal }

// NewRoute returns the route along links, which must be non-empty and
// belong to f. The route keeps links; it is not copied.
func (f *Fabric) NewRoute(links ...*Link) *Route {
	if len(links) == 0 {
		panic("vnet: empty flow path")
	}
	r := &Route{fabric: f, links: links, uses: make([]int, len(links))}
	for i, l := range links {
		if l.fabric != f {
			panic(fmt.Sprintf("vnet: link %q belongs to a different fabric", l.name))
		}
		r.uses[i] = l.id
		r.latency += l.latency
	}
	return r
}

// Transfer moves bytes along r, blocking p until the last byte arrives:
// transmission time under max-min fair sharing, plus the route's
// propagation latency (latency alone for zero bytes). The flow comes from
// the fabric's free list and goes back on it once the wait returns, so a
// transfer allocates nothing in steady state. A process aborted or killed
// while it waits unwinds past that point: its flow drains to completion
// unobserved and is never reused. label names the transfer at the call
// site and is not recorded.
func (f *Fabric) Transfer(p *sim.Proc, label string, r *Route, bytes float64) {
	if r.fabric != f {
		panic("vnet: route belongs to a different fabric")
	}
	fl := f.free
	if fl != nil {
		f.free, fl.next = fl.next, nil
	} else {
		fl = new(flow)
	}
	f.flowsTotal++
	if bytes <= 0 {
		// Pure control transfer: latency only.
		f.engine.FireAfter(r.latency, &fl.done)
	} else {
		// The last byte leaves when the work is served; it arrives after
		// the route's propagation latency.
		f.solver.Start(&fl.Activity, bytes, 0, r.uses, &fl.done, r.latency)
	}
	fl.done.Wait(p)
	fl.done = sim.Done{}
	fl.next, f.free = f.free, fl
}

// MessageDelay returns how long a small control message of the given size
// takes along r: propagation latency plus serialisation at the slowest
// link, without contending with bulk flows.
func (f *Fabric) MessageDelay(r *Route, bytes float64) sim.Time {
	minBW := sim.Forever
	for _, l := range r.links {
		if bw := l.Bandwidth(); bw < minBW {
			minBW = bw
		}
	}
	d := r.latency
	if bytes > 0 && minBW < sim.Forever {
		d += bytes / minBW
	}
	return d
}
