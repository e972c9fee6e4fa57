// Package vnet models the data-centre network that connects physical
// machines, the NFS filer and — through per-machine virtual bridges — the
// virtual machines of a vHadoop cluster.
//
// The fabric is a set of Links (virtual bridge, NIC transmit/receive, switch
// backplane) with fixed capacities and latencies. Bulk data moves as Flows:
// each flow occupies a path of links, and whenever the flow population
// changes the fabric recomputes every flow's rate with max-min fair
// water-filling, the standard fluid approximation of TCP bandwidth sharing.
// This is what makes a shared 1 Gb/s NIC the bottleneck of a cross-domain
// Hadoop virtual cluster, exactly as the vHadoop paper observes.
//
// Small control messages (heartbeats, RPCs) use Message, which charges
// propagation latency plus serialisation time but does not contend with bulk
// flows — matching their negligible real bandwidth.
package vnet

import (
	"fmt"

	"vhadoop/internal/sim"
)

// Link is a unidirectional network segment with a capacity in bytes/second
// and a one-way propagation latency.
type Link struct {
	name      string
	bandwidth float64
	latency   sim.Time
	fabric    *Fabric

	inUse      float64 // currently allocated rate
	busyInt    float64 // integral of allocated rate over time
	bytesTotal float64 // cumulative bytes carried
	createdAt  sim.Time
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link capacity in bytes/second.
func (l *Link) Bandwidth() float64 { return l.bandwidth }

// Latency returns the one-way propagation latency.
func (l *Link) Latency() sim.Time { return l.latency }

// Utilization returns the instantaneous fraction of capacity allocated.
func (l *Link) Utilization() float64 { return l.inUse / l.bandwidth }

// SetBandwidth retunes the link capacity mid-simulation (fault injection:
// degradation, or a partition modelled as a near-zero crawl). Flow progress
// is integrated at the old rates first, then every active flow is re-rated
// by a fresh water-filling pass. Bandwidth must stay positive: a zero-rate
// link would stall the fabric, so partitions use a small positive floor.
func (l *Link) SetBandwidth(bw float64) {
	if bw <= 0 {
		panic(fmt.Sprintf("vnet: link %q: bandwidth must be positive", l.name))
	}
	l.fabric.advance()
	l.bandwidth = bw
	l.fabric.reschedule()
}

// MeanUtilization returns the time-averaged utilisation since creation.
func (l *Link) MeanUtilization() float64 {
	l.fabric.advance()
	dt := l.fabric.engine.Now() - l.createdAt
	if dt <= 0 {
		return 0
	}
	return l.busyInt / (l.bandwidth * dt)
}

// BytesCarried returns the cumulative bytes moved across this link.
func (l *Link) BytesCarried() float64 {
	l.fabric.advance()
	return l.bytesTotal
}

// Flow is an in-flight bulk transfer across a path of links.
type Flow struct {
	name      string
	path      []*Link
	remaining float64
	rate      float64
	done      *sim.Done
	frozen    bool // scratch state for water-filling
	started   sim.Time
}

// Done returns the latch that fires when the last byte arrives.
func (f *Flow) Done() *sim.Done { return f.done }

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet transmitted.
func (f *Flow) Remaining() float64 { return f.remaining }

// Fabric owns all links and active flows and performs rate allocation.
// Active flows are kept in start order (a slice, not a map): rate
// allocation, retirement and completion-event firing must all walk them in
// a reproducible order, or floating-point tie-breaks and done-latch wakeup
// order — and with them the whole simulation — vary run to run.
type Fabric struct {
	engine     *sim.Engine
	links      []*Link
	flows      []*Flow
	timer      *sim.Timer
	lastUpdate sim.Time

	flowsTotal int
}

// NewFabric returns an empty fabric bound to e.
func NewFabric(e *sim.Engine) *Fabric {
	return &Fabric{engine: e}
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.engine }

// NewLink creates a link and registers it with the fabric.
func (f *Fabric) NewLink(name string, bandwidth float64, latency sim.Time) *Link {
	if bandwidth <= 0 {
		panic("vnet: link bandwidth must be positive")
	}
	l := &Link{
		name:      name,
		bandwidth: bandwidth,
		latency:   latency,
		fabric:    f,
		createdAt: f.engine.Now(),
	}
	f.links = append(f.links, l)
	return l
}

// Links returns all links in the fabric.
func (f *Fabric) Links() []*Link { return f.links }

// ActiveFlows returns the number of flows currently in flight.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// FlowsStarted returns the cumulative number of flows ever started.
func (f *Fabric) FlowsStarted() int { return f.flowsTotal }

// pathLatency sums one-way latencies along a path.
func pathLatency(path []*Link) sim.Time {
	var t sim.Time
	for _, l := range path {
		t += l.latency
	}
	return t
}

// StartFlow begins an asynchronous bulk transfer of the given size along
// path. The returned flow's Done latch fires when the last byte has arrived
// (transmission time under fair sharing, plus path propagation latency).
func (f *Fabric) StartFlow(name string, path []*Link, bytes float64) *Flow {
	if len(path) == 0 {
		panic("vnet: empty flow path")
	}
	for _, l := range path {
		if l.fabric != f {
			panic(fmt.Sprintf("vnet: link %q belongs to a different fabric", l.name))
		}
	}
	fl := &Flow{
		name:      name,
		path:      path,
		remaining: bytes,
		done:      sim.NewDone(f.engine),
		started:   f.engine.Now(),
	}
	f.flowsTotal++
	if bytes <= 0 {
		// Pure control transfer: latency only.
		f.engine.After(pathLatency(path), fl.done.Fire)
		return fl
	}
	f.advance()
	f.flows = append(f.flows, fl)
	f.reschedule()
	return fl
}

// Transfer moves bytes along path, blocking p until the last byte arrives.
func (f *Fabric) Transfer(p *sim.Proc, name string, path []*Link, bytes float64) {
	fl := f.StartFlow(name, path, bytes)
	fl.done.Wait(p)
}

// Message charges p for a small control message: propagation latency plus
// serialisation at the slowest link, without contending with bulk flows.
func (f *Fabric) Message(p *sim.Proc, path []*Link, bytes float64) {
	minBW := sim.Forever
	for _, l := range path {
		if l.bandwidth < minBW {
			minBW = l.bandwidth
		}
	}
	d := pathLatency(path)
	if bytes > 0 && minBW < sim.Forever {
		d += bytes / minBW
	}
	p.Sleep(d)
}

// advance integrates flow progress and link accounting up to now.
func (f *Fabric) advance() {
	now := f.engine.Now()
	dt := now - f.lastUpdate
	f.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range f.flows {
		moved := fl.rate * dt
		if moved > fl.remaining {
			moved = fl.remaining
		}
		fl.remaining -= moved
		for _, l := range fl.path {
			l.bytesTotal += moved
		}
	}
	for _, l := range f.links {
		l.busyInt += l.inUse * dt
	}
}

// recomputeRates performs max-min fair water-filling across all flows.
func (f *Fabric) recomputeRates() {
	for _, l := range f.links {
		l.inUse = 0
	}
	if len(f.flows) == 0 {
		return
	}
	residual := make(map[*Link]float64, len(f.links))
	crossing := make(map[*Link]int, len(f.links))
	for _, fl := range f.flows {
		fl.frozen = false
		for _, l := range fl.path {
			if _, ok := residual[l]; !ok {
				residual[l] = l.bandwidth
			}
			crossing[l]++
		}
	}
	unfrozen := len(f.flows)
	for unfrozen > 0 {
		// Find the tightest link: smallest residual fair share. Scan f.links
		// (creation order) rather than the crossing map so that exact
		// floating-point ties always resolve to the same link.
		var bottleneck *Link
		best := sim.Forever
		for _, l := range f.links {
			n := crossing[l]
			if n == 0 {
				continue
			}
			if share := residual[l] / float64(n); share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at that share.
		for _, fl := range f.flows {
			if fl.frozen {
				continue
			}
			onBottleneck := false
			for _, l := range fl.path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			fl.frozen = true
			fl.rate = best
			unfrozen--
			for _, l := range fl.path {
				residual[l] -= best
				if residual[l] < 0 {
					residual[l] = 0
				}
				crossing[l]--
				l.inUse += best
			}
		}
	}
}

// flowEps retires flows with a negligible byte residue; minTick guarantees
// the clock advances between completion events, so floating-point undershoot
// in rate*dt can never pin the simulation at a constant virtual time.
const (
	flowEps = 1e-6
	minTick = 1e-9
)

// reschedule retires finished flows, recomputes rates and re-arms the
// next-completion timer.
func (f *Fabric) reschedule() {
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	// Retire flows that are done or would finish within one tick, firing
	// their done latches in start order and compacting the rest in place.
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.remaining <= flowEps || fl.remaining <= fl.rate*minTick {
			// Last byte leaves now; it arrives after path propagation.
			lat := pathLatency(fl.path)
			if lat > 0 {
				f.engine.After(lat, fl.done.Fire)
			} else {
				fl.done.Fire()
			}
			continue
		}
		live = append(live, fl)
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil // release retired flows to the GC
	}
	f.flows = live
	if len(f.flows) == 0 {
		for _, l := range f.links {
			l.inUse = 0
		}
		return
	}
	f.recomputeRates()
	minT := sim.Forever
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			continue
		}
		if t := fl.remaining / fl.rate; t < minT {
			minT = t
		}
	}
	if minT >= sim.Forever {
		panic("vnet: fabric stalled with active flows")
	}
	if minT < minTick {
		minT = minTick
	}
	f.timer = f.engine.After(minT, func() {
		f.advance()
		f.reschedule()
	})
}
