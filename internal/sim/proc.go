//go:build go1.23

package sim

// The build line raises this file's language version to Go 1.23 for
// iter.Pull while go.mod still says go 1.22. It goes away once
// bench/go.mod moves to go 1.23 and the root go.mod follows.

import (
	"fmt"
	"iter"
)

// errKilled unwinds a process body during Engine.Shutdown.
type errKilled struct{ name string }

func (e errKilled) Error() string { return "sim: process killed: " + e.name }

// Proc is a simulated process: a function body run as a coroutine on one
// of the engine's carriers, so it and the engine never run at once. All
// Proc methods must be called from the process body itself.
type Proc struct {
	engine     *Engine
	name       string
	spawnSeq   uint64      // creation order, the engine's teardown order
	slot       int         // index in the engine's live set
	body       func(*Proc) // the process function, cleared once it terminates
	carrier    *carrier    // bound at the first dispatch, cleared at termination
	done       Done        // fires when the body terminates normally
	terminated bool
	killed     bool
	abortErr   error // pending Abort, delivered at the next resume
	err        error // value recovered from a Fail or Abort, if any
}

// carrier is a coroutine that runs process bodies one after another. A
// body parks its carrier at every blocking call; when the body returns,
// the carrier goes back on its engine's free list for the next process.
type carrier struct {
	next func() (struct{}, bool) // engine side: run the bound body until it parks
	stop func()                  // ends an idle carrier's coroutine
	park func(struct{}) bool     // process side: hand control back to the engine
	proc *Proc                   // bound process, nil while idle
}

// newCarrier returns a carrier whose coroutine has not started yet.
func (e *Engine) newCarrier() *carrier {
	e.stats.Carriers++
	c := new(carrier)
	c.next, c.stop = iter.Pull(func(park func(struct{}) bool) {
		c.park = park
		for {
			c.proc.run()
			c.proc = nil
			e.idle = append(e.idle, c)
			if !park(struct{}{}) {
				return
			}
		}
	})
	return c
}

// stopIdle ends the coroutines of every idle carrier.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		e.idle[i] = nil
		c.stop()
	}
	e.idle = e.idle[:0]
}

// run executes the process body on its carrier.
func (p *Proc) run() {
	defer p.finish()
	p.body(p)
}

// finish records how the body ended; one that returns with an abort
// pending (it reached the process before its first dispatch) ends with the
// abort as its Err. A panic that is not one of the engine's own unwinds is
// a bug in simulation code; it is re-raised as a report naming the process
// and reaches the caller of Run through the carrier's next.
func (p *Proc) finish() {
	r := recover()
	bug := false
	switch r := r.(type) {
	case nil:
		p.err = p.abortErr
	case errKilled:
		// Normal unwind during Shutdown.
	case procFailure:
		p.err = r.err
	default:
		bug = true
	}
	p.terminated = true
	p.body, p.carrier = nil, nil
	p.engine.forget(p)
	if bug {
		p.engine.current = nil
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
	if !p.killed {
		p.done.fire()
	}
}

// procFailure carries an error through panic/recover in Fail.
type procFailure struct{ err error }

// Fail terminates the process immediately, recording err; Done waiters are
// still released and can inspect Err.
func (p *Proc) Fail(err error) {
	panic(procFailure{err: err})
}

// Abort asynchronously terminates the process with err the next time it
// would run: a parked process is woken immediately to unwind (its deferred
// cleanup runs, its Done latch fires with Err() == err). Aborting a
// terminated process is a no-op. Abort must be called from engine context
// or another process, never from the target itself (use Fail there).
func (p *Proc) Abort(err error) {
	if p.terminated || p.abortErr != nil {
		return
	}
	p.abortErr = err
	if p.carrier != nil {
		p.scheduleAt(p.engine.now)
	}
}

// Reusable reports whether Engine.SpawnInto may start a new process in p:
// its last process terminated with a nil Err and was not killed. Such a
// process was running when it ended, and every wake removes the waiter it
// wakes, so no event, latch, gate or queue still names p. Abort wakes a
// process without taking it off the latch, gate or solver job it was
// parked on, so an aborted record is never reusable; it always ends with
// the abort, or its own Fail, as its Err, or was killed. mapreduce's
// attempt record checks it before reuse. xen's I/O stage records own no
// Proc and keep the same rule with their own abort flag: an aborted record
// can still be called back by the latch it was registered on.
func (p *Proc) Reusable() bool {
	return p.terminated && p.err == nil && !p.killed
}

// Err returns the error recorded by Fail or Abort, or nil.
func (p *Proc) Err() error { return p.err }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Done returns a latch that fires when the process terminates normally
// (including via Fail, but not when killed by Shutdown).
func (p *Proc) Done() *Done { return &p.done }

// yield parks the process's carrier, returning control to the engine, and
// comes back when the engine dispatches this process again. Every blocking
// primitive bottoms out here.
func (p *Proc) yield() {
	if p.killed {
		panic(errKilled{p.name})
	}
	if !p.carrier.park(struct{}{}) || p.killed {
		panic(errKilled{p.name})
	}
	if p.abortErr != nil {
		panic(procFailure{err: p.abortErr})
	}
}

// block parks the process with no scheduled wakeup; something else (a Done
// firing, a queue grant) must schedule its resume event.
func (p *Proc) block() { p.yield() }

// scheduleAt enqueues a resume event for this process at time t.
func (p *Proc) scheduleAt(t Time) {
	ev := p.engine.newEvent(t)
	ev.proc = p
	p.engine.schedule(ev)
}

// Sleep suspends the process for d seconds of virtual time. A negative or
// NaN d panics.
func (p *Proc) Sleep(d Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid sleep %v in %q", d, p.name))
	}
	p.scheduleAt(p.engine.now + d)
	p.yield()
}
