package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time is a point on (or span of) the virtual clock, in seconds.
type Time = float64

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxFloat64 / 4

// Engine is a deterministic discrete-event simulator. It owns the virtual
// clock and the event queue, and it coordinates processes so exactly one of
// them runs at a time. An Engine must not be shared between goroutines other
// than through the process mechanism it provides.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	procSeq uint64 // spawn-order stamp, so teardown order is reproducible
	rng     *rand.Rand
	//vhlint:allow lockfree -- hand-off core: handoff is the process->engine half of the strict baton pair; see dispatch
	handoff   chan struct{}  // processes signal the run loop here
	procs     map[*Proc]bool // all live processes
	current   *Proc          // process currently executing, nil in engine context
	stopped   bool           // set by Stop / Shutdown
	procPanic string         // pending process-bug report, re-panicked by dispatch in engine context
}

// New returns an Engine whose pseudo-random stream is derived from seed.
// The same seed always reproduces the same simulation.
func New(seed int64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewSource(seed)),
		//vhlint:allow lockfree -- hand-off core: unbuffered by design, so a baton pass is a rendezvous and both sides can never run at once
		handoff: make(chan struct{}),
		procs:   make(map[*Proc]bool),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic pseudo-random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run in engine context at virtual time t. Scheduling in
// the past is an error that panics: it would break causality.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &event{at: t, seq: e.nextSeq(), fn: fn}
	e.events.push(ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Spawn creates a new process running fn and schedules it to start at the
// current virtual time. fn runs in its own goroutine but under the engine's
// strict hand-off discipline, so it may freely touch simulation state.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter is Spawn with a start delay.
func (e *Engine) SpawnAfter(d Time, name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{
		engine:   e,
		name:     name,
		spawnSeq: e.procSeq,
		//vhlint:allow lockfree -- hand-off core: per-process engine->process baton, unbuffered rendezvous
		resume: make(chan struct{}),
		done:   NewDone(e),
	}
	e.procs[p] = true
	e.After(d, func() { p.start(fn) })
	return p
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= deadline. Events beyond the
// deadline stay queued; the clock is advanced to the deadline if any such
// events remain (so repeated RunUntil calls observe monotonic time).
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.stopped {
		ev := e.events.pop()
		if ev == nil {
			break
		}
		if ev.at > deadline {
			// Put it back for a later RunUntil call.
			ev.seq = 0 // keep it ahead of same-time events scheduled later
			e.events.push(ev)
			e.now = deadline
			return e.now
		}
		e.now = ev.at
		ev.fired = true
		if ev.fn != nil {
			ev.fn()
		} else if ev.proc != nil {
			e.dispatch(ev.proc)
		}
	}
	return e.now
}

// dispatch transfers control to p until it blocks or terminates. A
// panic that escaped the process body is re-raised here, in engine
// context, so the failure is synchronous and lands on the goroutine
// that called Run — deterministic and recoverable by tests.
func (e *Engine) dispatch(p *Proc) {
	if p.terminated {
		return
	}
	e.current = p
	//vhlint:allow lockfree -- hand-off core: pass the baton to the process...
	p.resume <- struct{}{}
	//vhlint:allow lockfree -- hand-off core: ...and block until it comes back; the engine never runs concurrently with a process
	<-e.handoff
	e.current = nil
	if msg := e.procPanic; msg != "" {
		e.procPanic = ""
		panic(msg)
	}
}

// Stop halts the run loop after the current event completes. Queued events
// remain; a subsequent Run resumes from where the simulation stopped.
func (e *Engine) Stop() { e.stopped = true }

// resetStop re-arms a stopped engine so Run can be called again.
func (e *Engine) resetStop() { e.stopped = false }

// Resume clears a previous Stop so the engine can run again.
func (e *Engine) Resume() { e.resetStop() }

// LiveProcs returns the number of processes that have been spawned and have
// not yet terminated (they may be blocked or not yet started).
func (e *Engine) LiveProcs() int { return len(e.procs) }

// Shutdown terminates every live process by unwinding its goroutine, then
// clears the event queue. It is intended for tests and for tearing down a
// platform whose background daemons (heartbeats, monitors) never exit on
// their own. Shutdown must be called from engine context (not from inside a
// process).
func (e *Engine) Shutdown() {
	if e.current != nil {
		panic("sim: Shutdown called from process context")
	}
	// Kill in spawn order: map iteration order would make the unwind
	// sequence (and anything its deferred cleanup touches) vary run to
	// run.
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].spawnSeq < live[j].spawnSeq })
	for _, p := range live {
		if p.started && !p.terminated {
			p.killed = true
			e.dispatch(p)
		} else {
			delete(e.procs, p)
		}
	}
	e.events = nil
	e.stopped = false
}
