package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	now    Time
	events eventHeap
	// ready is the FIFO of non-kept events scheduled at now, from head on:
	// process wakeups and zero-delay callbacks skip the heap. Every entry
	// has at == now and a larger seq than the one before it, and the clock
	// cannot advance while it is non-empty, so popping whichever of its
	// head, the heap's and the lanes' has the smallest (at, seq) keeps one
	// heap's order.
	ready   []*event
	head    int
	lanes   *Lane    // lanes holding a callback, linked through next
	free    []*event // fired events, recycled by newEvent
	seq     uint64
	procSeq uint64 // spawn-order stamp, so teardown order is reproducible
	rng     *rand.Rand
	procs   []*Proc    // all live processes; each knows its slot
	idle    []*carrier // carriers whose last body returned, reused by dispatch
	current *Proc      // process currently executing, nil in engine context
	stats   Stats
}

// Stats counts the events the run loop has executed, by queue, the
// processes it has run, and the work the engine's MaxMin solvers have
// done.
type Stats struct {
	HeapPops  uint64 // events popped off the heap
	HeapLen   uint64 // the heap's length, summed over heap pops
	ReadyPops uint64 // events popped off the ready FIFO
	LanePops  uint64 // callbacks popped off a Lane

	Spawns   uint64 // processes started, by Spawn or SpawnInto
	Resumes  uint64 // times a process was run until it parked or ended
	Carriers uint64 // carrier coroutines made; idle ones are reused first

	Rerates uint64 // rate recomputes
	Rounds  uint64 // progressive-filling rounds
	Visits  uint64 // class entries scanned, summed over filling rounds
}

// New returns an Engine whose pseudo-random stream is derived from seed.
// The same seed always reproduces the same simulation.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats returns the event and solver work counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// Rand returns the engine's deterministic pseudo-random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run in engine context at virtual time t. Scheduling in
// the past is an error that panics: it would break causality.
func (e *Engine) At(t Time, fn func()) {
	e.checkTime(t)
	ev := e.newEvent(t)
	ev.fn = fn
	e.schedule(ev)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.later(d), fn)
}

// FireAfter fires latch d seconds from now. It is After(d, latch.Fire)
// without the method-value closure.
func (e *Engine) FireAfter(d Time, latch *Done) {
	ev := e.newEvent(e.later(d))
	ev.done = latch
	e.schedule(ev)
}

// later returns the time d seconds from now; a negative or NaN delay
// panics.
func (e *Engine) later(d Time) Time {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid delay %v", d))
	}
	return e.now + d
}

// checkTime panics unless t is now or later: an earlier time would break
// causality, and a NaN one would stop the clock meaning anything.
func (e *Engine) checkTime(t Time) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// newEvent returns an unqueued event at time t with the next sequence
// number, taken from the free list when one is available.
func (e *Engine) newEvent(t Time) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{index: -1}
	}
	ev.at, ev.seq = t, e.nextSeq()
	return ev
}

// schedule queues the non-kept event ev: on the ready FIFO if it is due
// now, on the heap otherwise.
func (e *Engine) schedule(ev *event) {
	if ev.at == e.now {
		e.ready = append(e.ready, ev)
	} else {
		e.events.push(ev)
	}
}

// rearm schedules the kept event ev at time t with the next sequence
// number, moving it if it is already queued.
func (e *Engine) rearm(ev *event, t Time) {
	e.checkTime(t)
	ev.at, ev.seq = t, e.nextSeq()
	if ev.index >= 0 {
		e.events.fix(ev.index)
	} else {
		e.events.push(ev)
	}
}

// disarm takes the kept event ev out of the queue if it is there.
func (e *Engine) disarm(ev *event) {
	if ev.index >= 0 {
		e.events.remove(ev.index)
	}
}

// Spawn creates a new process running fn and schedules it to start at the
// current virtual time. fn runs as a coroutine that the engine resumes and
// that parks at every blocking call, so it may freely touch simulation
// state.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := new(Proc)
	e.SpawnInto(p, name, fn)
	return p
}

// SpawnInto is Spawn into a record the caller owns, so a caller that keeps
// its records on a free list starts a process without allocating. p must
// be a zero Proc or one that is Reusable; any other record panics, since
// something may still wake or abort the process it names.
func (e *Engine) SpawnInto(p *Proc, name string, fn func(p *Proc)) {
	fresh := p.engine == nil && p.abortErr == nil // never started, never aborted
	if !fresh && !p.Reusable() {
		panic(fmt.Sprintf("sim: spawning %q into the record of %q, which is live or did not end cleanly", name, p.name))
	}
	e.procSeq++
	e.stats.Spawns++
	// Every other field of a zero or Reusable record is zero already:
	// finish cleared the body and the carrier, and the fired latch holds no
	// waiter. Writing only these keeps a whole-struct store, and the write
	// barrier on each of its pointer slots, off the spawn path.
	p.engine, p.name, p.spawnSeq, p.body, p.slot = e, name, e.procSeq, fn, len(e.procs)
	p.terminated, p.done.fired = false, false
	e.procs = append(e.procs, p)
	p.scheduleAt(e.now)
}

// Run executes events until the queue drains. It returns the final virtual
// time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// schedEvery is how many events RunUntil runs between calls to
// runtime.Gosched. A coroutine switch never enters the Go scheduler, so
// without them a long run would keep the garbage collector's background
// mark worker off a single P until the next asynchronous preemption, and
// the heap would overshoot its goal while the cycle waited.
const schedEvery = 256

// RunUntil executes events with timestamps <= deadline. Events beyond the
// deadline stay queued; the clock is advanced to the deadline if any such
// events remain (so repeated RunUntil calls observe monotonic time). A
// deadline before now panics, as scheduling in the past does. It always
// returns with the ready FIFO empty, and when the heap and the lanes are
// empty too, the idle carriers are stopped.
func (e *Engine) RunUntil(deadline Time) Time {
	if !(deadline >= e.now) {
		panic(fmt.Sprintf("sim: running until %v before now %v", deadline, e.now))
	}
	for n := 1; ; n++ {
		if n%schedEvery == 0 {
			runtime.Gosched()
		}
		lane, at, seq, timed := e.earliest()
		var ev *event
		if e.head < len(e.ready) && (!timed || at > e.now || e.ready[e.head].seq < seq) {
			ev = e.ready[e.head]
			e.ready[e.head] = nil
			e.stats.ReadyPops++
			if e.head++; e.head == len(e.ready) {
				e.ready, e.head = e.ready[:0], 0
			}
		} else if !timed {
			break
		} else if at > deadline {
			e.now = deadline
			return e.now
		} else if lane != nil {
			e.stats.LanePops++
			e.now = at
			lane.pop()()
			continue
		} else {
			e.stats.HeapPops++
			e.stats.HeapLen += uint64(len(e.events))
			ev = e.events.pop()
			e.now = ev.at
		}
		fn, p, latch := ev.fn, ev.proc, ev.done
		if !ev.keep {
			*ev = event{index: -1}
			e.free = append(e.free, ev)
		}
		switch {
		case fn != nil:
			fn()
		case p != nil:
			e.dispatch(p)
		case latch != nil:
			latch.fire()
		}
	}
	e.stopIdle()
	return e.now
}

// earliest returns the earliest queued event off the ready FIFO, which is
// the heap's top or the head of a lane: its time and sequence number, and
// its lane, nil for the heap's top. timed is false when neither holds an
// event. The ready FIFO's head goes first unless this event is due now
// with a smaller sequence number.
func (e *Engine) earliest() (lane *Lane, at Time, seq uint64, timed bool) {
	if len(e.events) > 0 {
		at, seq, timed = e.events[0].at, e.events[0].seq, true
	}
	for l := e.lanes; l != nil; l = l.next {
		h := &l.ring[l.head]
		if !timed || h.at < at || h.at == at && h.seq < seq {
			lane, at, seq, timed = l, h.at, h.seq, true
		}
	}
	return lane, at, seq, timed
}

// dispatch runs p until it parks or terminates, binding it to a carrier
// first if it has not started. A panic that escaped the process body
// propagates out of the carrier's next, in engine context, so the failure
// is synchronous and lands on the goroutine that called Run.
func (e *Engine) dispatch(p *Proc) {
	if p.terminated {
		return
	}
	c := p.carrier
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle = e.idle[:n-1]
		} else {
			c = e.newCarrier()
		}
		c.proc, p.carrier = p, c
	}
	e.current = p
	e.stats.Resumes++
	c.next()
	e.current = nil
}

// LiveProcs returns the number of processes spawned and not yet terminated.
// Only tests read it: core's TestRunDrainsAndShutsDown checks for leaks,
// mapreduce's TestIdleDaemonsOwnNoProcess that idle daemons own none, and
// xen's TestIOStagesOwnNoProcess that I/O stages in flight own none.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// forget removes the terminated process p from the live set, moving the
// last live process into its slot.
func (e *Engine) forget(p *Proc) {
	last := e.procs[len(e.procs)-1]
	e.procs[p.slot], last.slot = last, p.slot
	e.procs[len(e.procs)-1] = nil
	e.procs = e.procs[:len(e.procs)-1]
}

// Shutdown terminates every live process by unwinding its body, then
// clears the event heap, the ready FIFO and the lanes and stops the idle
// carriers. It is intended for tests and for tearing down a platform whose
// background daemons (the replication monitor, timer chains) never exit on
// their own. Shutdown must be called from engine context (not from inside a
// process).
func (e *Engine) Shutdown() {
	if e.current != nil {
		panic("sim: Shutdown called from process context")
	}
	// Kill in spawn order: the live set's slot order depends on which
	// processes finished when, and the unwind sequence (and anything its
	// deferred cleanup touches) must not.
	live := append([]*Proc(nil), e.procs...)
	sort.Slice(live, func(i, j int) bool { return live[i].spawnSeq < live[j].spawnSeq })
	for _, p := range live {
		if p.carrier != nil {
			p.killed = true
			e.dispatch(p)
		} else {
			e.forget(p)
		}
	}
	// A kept event outlives the heap; mark it unqueued so its owner's next
	// rearm pushes it instead of fixing a slot that no longer exists.
	for _, ev := range e.events {
		ev.index = -1
	}
	e.events = nil
	e.ready, e.head = nil, 0
	for l := e.lanes; l != nil; {
		next := l.next
		clear(l.ring)
		l.head, l.n, l.next = 0, 0, nil
		l = next
	}
	e.lanes = nil
	e.stopIdle()
}

// Lane is a FIFO of callbacks, each due a fixed delay after it was
// scheduled: a timer chain whose every step waits the same interval (the
// tasktracker heartbeat) queues its timers here instead of on the heap.
// Lane.After draws the one (time, sequence number) that Engine.After with
// the lane's delay would draw. The clock never goes back and sequence
// numbers only grow, so a lane is already in (time, sequence number)
// order, and the run loop pops whichever of the ready FIFO's head, the
// heap's top and each lane's head is earliest: the order one heap would
// give. The FIFO is a ring that doubles when full, so a lane that never
// drains stops allocating once it has held its most callbacks.
type Lane struct {
	e    *Engine
	d    Time
	ring []laneEvent
	head int   // ring slot of the earliest callback
	n    int   // callbacks queued
	next *Lane // next lane on the engine's list while n > 0
}

type laneEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// NewLane returns an empty lane whose callbacks are due d seconds after
// they were scheduled. A negative or NaN delay panics.
func (e *Engine) NewLane(d Time) *Lane {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid lane delay %v", d))
	}
	return &Lane{e: e, d: d}
}

// After schedules fn to run the lane's delay from now, as Engine.After
// does.
func (l *Lane) After(fn func()) {
	if l.n == len(l.ring) {
		l.Grow(1)
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = laneEvent{l.e.now + l.d, l.e.nextSeq(), fn}
	if l.n == 0 {
		l.next, l.e.lanes = l.e.lanes, l
	}
	l.n++
}

// Grow makes room for n more callbacks, so the next n calls to After
// allocate nothing.
func (l *Lane) Grow(n int) {
	if l.n+n <= len(l.ring) {
		return
	}
	ring := make([]laneEvent, max(2*len(l.ring), l.n+n))
	k := copy(ring, l.ring[l.head:min(l.head+l.n, len(l.ring))])
	copy(ring[k:], l.ring[:l.n-k])
	l.ring, l.head = ring, 0
}

// pop removes and returns the earliest callback, taking the lane off the
// engine's list when it drains. The lane must be non-empty.
func (l *Lane) pop() func() {
	h := &l.ring[l.head]
	fn := h.fn
	*h = laneEvent{}
	if l.head++; l.head == len(l.ring) {
		l.head = 0
	}
	if l.n--; l.n == 0 {
		p := &l.e.lanes
		for *p != l {
			p = &(*p).next
		}
		*p, l.next = l.next, nil
	}
	return fn
}
