package sim

// Done is a one-shot completion latch. Processes that Wait on it block until
// Fire is called; waits after the latch has fired return immediately. The
// zero Done is an unfired latch, so owners embed it by value.
type Done struct {
	fired bool
	// first is the earliest waiter, kept inline so the common single-waiter
	// latch blocks without allocating; later waiters queue in rest.
	first *Proc
	rest  []*Proc
}

// NewDone returns an unfired latch.
func NewDone() *Done { return new(Done) }

// Fired reports whether the latch has fired. Only tests read it:
// TestDoneReleasesWaiters and TestAbortUnwindsParkedProcess.
func (d *Done) Fired() bool { return d.fired }

// Fire releases all current and future waiters. Firing twice is a no-op.
// Fire may be called from engine context or from a process.
func (d *Done) Fire() { d.fire() }

func (d *Done) fire() {
	if d.fired {
		return
	}
	d.fired = true
	if d.first != nil {
		d.first.scheduleAt(d.first.engine.now)
		d.first = nil
	}
	for _, p := range d.rest {
		p.scheduleAt(p.engine.now)
	}
	d.rest = nil
}

// Wait blocks p until the latch fires.
func (d *Done) Wait(p *Proc) {
	if d.fired {
		return
	}
	if d.first == nil {
		d.first = p
	} else {
		d.rest = append(d.rest, p)
	}
	p.block()
}

// WaitProcs blocks p until every listed process has terminated, and returns
// the first non-nil error recorded by any of them (in argument order).
func WaitProcs(p *Proc, procs ...*Proc) error {
	var err error
	for _, q := range procs {
		q.Done().Wait(p)
		if err == nil && q.Err() != nil {
			err = q.Err()
		}
	}
	return err
}

// Gate is a reusable open/closed barrier. While open, WaitOpen returns
// immediately; while closed, waiters block until the next Open. Gates model
// pausable components, e.g. a VM's VCPU during stop-and-copy.
type Gate struct {
	engine  *Engine
	open    bool
	waiters []gateWaiter // parked processes and callbacks, in registration order
}

// gateWaiter is one registration on a closed gate: a parked process, or a
// callback from code that is not one.
type gateWaiter struct {
	proc *Proc
	fn   func()
}

// NewGate returns a gate in the given initial state.
func NewGate(e *Engine, open bool) *Gate {
	return &Gate{engine: e, open: open}
}

// Open releases all waiters in registration order, each drawing one event at
// the open time: a process resumes, a callback runs. No-op if already open.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		if w.proc != nil {
			w.proc.scheduleAt(g.engine.now)
		} else {
			g.engine.At(g.engine.now, w.fn)
		}
	}
	g.waiters = nil
}

// Close makes subsequent WaitOpen calls block.
func (g *Gate) Close() { g.open = false }

// WaitOpen blocks p until the gate is open. If the gate closes and reopens
// while p is queued, p still wakes at the first Open after its Wait.
func (g *Gate) WaitOpen(p *Proc) {
	for !g.open {
		g.waiters = append(g.waiters, gateWaiter{proc: p})
		p.block()
	}
}

// OpenOr is WaitOpen for code that is not a process. It reports whether the
// gate is open; if it is not, it queues fn behind the gate's other waiters,
// and the next Open runs fn at the open time. The gate may close again
// before fn runs, so fn calls OpenOr again first, as WaitOpen's loop does.
func (g *Gate) OpenOr(fn func()) bool {
	if !g.open {
		g.waiters = append(g.waiters, gateWaiter{fn: fn})
	}
	return g.open
}
