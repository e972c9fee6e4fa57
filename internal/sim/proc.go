package sim

import "fmt"

// errKilled unwinds a process goroutine during Engine.Shutdown.
type errKilled struct{ name string }

func (e errKilled) Error() string { return "sim: process killed: " + e.name }

// Proc is a simulated process: a goroutine that runs under the engine's
// strict hand-off discipline. All Proc methods must be called from the
// process's own goroutine.
type Proc struct {
	engine   *Engine
	name     string
	spawnSeq uint64 // creation order, the engine's teardown order
	//vhlint:allow lockfree -- hand-off core: resume carries the engine->process baton; exactly one of the pair runs at any instant
	resume     chan struct{}
	done       *Done
	started    bool
	terminated bool
	killed     bool
	abortErr   error // pending Abort, delivered at the next resume
	err        error // value recovered from a Fail or Abort, if any
}

// start launches the process body. Called in engine context by the start
// event created in Spawn.
func (p *Proc) start(fn func(p *Proc)) {
	p.started = true
	//vhlint:allow lockfree -- hand-off core: the process goroutine is created parked; it runs only between a resume send and the next handoff send
	go func() {
		//vhlint:allow lockfree -- hand-off core: first dispatch baton
		<-p.resume // wait for first dispatch
		defer func() {
			r := recover()
			bug := false
			switch r := r.(type) {
			case nil:
			case errKilled:
				// Normal unwind during Shutdown.
			case procFailure:
				p.err = r.err
			default:
				// A real bug in simulation code. Record it and let dispatch
				// re-panic in engine context after the hand-off completes:
				// panicking here, on the process goroutine, would resume
				// the engine and then crash concurrently with it — the
				// report interleaves with further simulation activity and
				// surfaces on a goroutine no test can recover from.
				p.engine.procPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
				bug = true
			}
			p.terminated = true
			delete(p.engine.procs, p)
			if !p.killed && !bug {
				p.done.fire()
			}
			//vhlint:allow lockfree -- hand-off core: terminal baton back to the engine; the goroutine exits immediately after
			p.engine.handoff <- struct{}{}
		}()
		fn(p)
	}()
	p.engine.dispatch(p)
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
	if p.started {
		p.scheduleAt(p.engine.now)
	}
}

// Err returns the error recorded by Fail, or nil.
func (p *Proc) Err() error { return p.err }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Done returns a latch that fires when the process terminates normally
// (including via Fail, but not when killed by Shutdown).
func (p *Proc) Done() *Done { return p.done }

// Terminated reports whether the process has finished.
func (p *Proc) Terminated() bool { return p.terminated }

// yield returns control to the engine and blocks until the engine resumes
// this process. Every blocking primitive bottoms out here.
func (p *Proc) yield() {
	if p.killed {
		panic(errKilled{p.name})
	}
	//vhlint:allow lockfree -- hand-off core: yield parks this process by passing the baton to the engine...
	p.engine.handoff <- struct{}{}
	//vhlint:allow lockfree -- hand-off core: ...and blocks until the engine passes it back; no third party ever holds it
	<-p.resume
	if p.killed {
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
	p.engine.events.push(ev)
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %q", d, p.name))
	}
	p.scheduleAt(p.engine.now + d)
	p.yield()
}

// SleepUntil suspends the process until virtual time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.engine.now {
		return
	}
	p.scheduleAt(t)
	p.yield()
}

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() {
	p.scheduleAt(p.engine.now)
	p.yield()
}
