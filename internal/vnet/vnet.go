// Package vnet models the data-centre network that connects physical
// machines, the NFS filer and — through per-machine virtual bridges — the
// virtual machines of a vHadoop cluster.
//
// The fabric is a set of Links (virtual bridge, NIC transmit/receive, switch
// backplane) with fixed capacities and latencies. A Route is a path of links
// built once — its links, their indices in the fabric's solver and their
// summed latency — and reused by every flow along it (internal/phys caches
// one per machine pair). Bulk data moves as flows, and a Stream is the one
// way to start one: a flow, optionally beside a job on a rate-shared device
// that runs at the same time (the NFS filer's disk). The flow occupies its
// route until its last byte arrives, and whenever the flow population
// changes the fabric recomputes every flow's rate with max-min fair
// water-filling, the standard fluid approximation of TCP bandwidth sharing.
// Transfer is a Stream of one flow that the calling process blocks on; the
// VM I/O stages, which own no process, wait on a Stream's latches with
// callbacks instead. A flow is one allocation, its solver activity and its
// completion latch together, and the Stream recycles it. This is what makes
// a shared 1 Gb/s NIC the bottleneck of a cross-domain Hadoop virtual
// cluster, exactly as the vHadoop paper observes.
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
	free       *flow // flows streams have finished with, linked through next
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
// propagation latency (latency alone for zero bytes). It is a Stream with
// no device job, waited out by p, so a transfer allocates nothing in steady
// state. A process aborted or killed while it waits unwinds past the point
// where the flow goes back on the free list: its flow drains to completion
// unobserved and is never reused. label names the transfer at the call site
// and is not recorded.
func (f *Fabric) Transfer(p *sim.Proc, label string, r *Route, bytes float64) {
	st := f.Stream(nil, 0, r, bytes)
	st.Wait(p)
}

// Stream is bulk work in progress: a job on a rate-shared device and a
// flow, which run at once, either possibly absent. The NFS filer's reads
// and writes are both (its disk and the network); a send is a flow alone,
// and a page-cache hit a memory-bus job alone. A process waits a stream out
// with Wait; code that is not a process waits on each latch Next returns.
// The zero Stream is done.
type Stream struct {
	fabric *Fabric
	flow   *flow
	dev    *sim.FairShare
	job    *sim.Job
}

// Stream starts work units on dev (nil for none), then bytes along r (nil
// for none), and returns them as one Stream. Both records come from free
// lists and go back on them as Next passes them.
func (f *Fabric) Stream(dev *sim.FairShare, work float64, r *Route, bytes float64) Stream {
	st := Stream{fabric: f, dev: dev}
	if dev != nil {
		st.job = dev.Begin(work)
	}
	if r != nil {
		st.flow = f.start(r, bytes)
	}
	return st
}

// start begins a flow of bytes along r, from the free list.
func (f *Fabric) start(r *Route, bytes float64) *flow {
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
	return fl
}

// Next returns the latch st waits on next, or nil once st is done: the
// flow's, then the job's, the order Wait takes them in. Called again once
// that latch has fired, it puts the finished record back on its free list
// and moves on. A stream abandoned mid-wait keeps its records, which drain
// to completion unobserved and are never reused.
func (st *Stream) Next() *sim.Done {
	if fl := st.flow; fl != nil {
		if !fl.done.Fired() {
			return &fl.done
		}
		fl.done = sim.Done{}
		fl.next, st.fabric.free = st.fabric.free, fl
		st.flow = nil
	}
	if j := st.job; j != nil {
		if d := j.Done(); !d.Fired() {
			return d
		}
		st.dev.Recycle(j)
		st.job = nil
	}
	return nil
}

// Wait blocks p until st is done.
func (st *Stream) Wait(p *sim.Proc) {
	for d := st.Next(); d != nil; d = st.Next() {
		d.Wait(p)
	}
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
