package sim

// Done is a one-shot completion latch. Processes that Wait on it block until
// Fire is called; waits after the latch has fired return immediately. Code
// that is not a process registers a Callback through FiredOr instead. The
// zero Done is an unfired latch, so owners embed it by value.
type Done struct {
	fired bool
	// first is the earliest waiter, kept inline so the common single-waiter
	// latch blocks without allocating; later waiters queue in rest.
	first waiter
	rest  []waiter
}

// waiter is one registration on a latch: a parked process, or a callback.
type waiter struct {
	proc *Proc
	cb   *Callback
}

// Callback is a latch waiter that is not a process: fn, run on its engine
// at the fire time. Its owner keeps it by value, binds it once and passes
// it to FiredOr by pointer, so registering allocates nothing.
type Callback struct {
	engine *Engine
	fn     func()
}

// NewCallback returns a callback that runs fn on e.
func NewCallback(e *Engine, fn func()) Callback { return Callback{engine: e, fn: fn} }

// NewDone returns an unfired latch.
func NewDone() *Done { return new(Done) }

// Fired reports whether the latch has fired.
func (d *Done) Fired() bool { return d.fired }

// Fire releases all current and future waiters. Firing twice is a no-op.
// Fire may be called from engine context or from a process.
func (d *Done) Fire() { d.fire() }

// fire wakes the waiters in registration order, each drawing one event at
// the fire time: a process resumes, a callback runs.
func (d *Done) fire() {
	if d.fired {
		return
	}
	d.fired = true
	if d.first != (waiter{}) {
		d.first.wake()
		d.first = waiter{}
	}
	for _, w := range d.rest {
		w.wake()
	}
	d.rest = nil
}

// wake schedules w at the current time.
func (w waiter) wake() {
	if w.proc != nil {
		w.proc.scheduleAt(w.proc.engine.now)
	} else {
		e := w.cb.engine
		e.At(e.now, w.cb.fn)
	}
}

// add registers w behind the latch's other waiters.
func (d *Done) add(w waiter) {
	if d.first == (waiter{}) {
		d.first = w
	} else {
		d.rest = append(d.rest, w)
	}
}

// Wait blocks p until the latch fires.
func (d *Done) Wait(p *Proc) {
	if d.fired {
		return
	}
	d.add(waiter{proc: p})
	p.block()
}

// FiredOr is Wait for code that is not a process, as Gate.OpenOr is
// WaitOpen. It reports whether the latch has fired; if it has not, it queues
// cb behind the latch's other waiters, and Fire runs cb at the fire time, in
// registration order with the waiting processes.
func (d *Done) FiredOr(cb *Callback) bool {
	if d.fired {
		return true
	}
	d.add(waiter{cb: cb})
	return false
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
