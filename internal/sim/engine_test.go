package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(2.0, func() { order = append(order, 2) })
	e.At(1.0, func() { order = append(order, 1) })
	e.At(3.0, func() { order = append(order, 3) })
	e.At(1.0, func() { order = append(order, 10) }) // same time: FIFO
	end := e.Run()
	if end != 3.0 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := New(1)
	var at Time
	e.After(5, func() { at = e.Now() })
	e.Run()
	almost(t, at, 5, 0, "After(5) fire time")
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// A kept event that is disarmed never fires; one re-armed while queued
// moves and fires once, at its new time; one re-armed after firing fires
// again.
func TestKeptEventRearmDisarm(t *testing.T) {
	e := New(1)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	off := event{index: -1, keep: true, fn: record}
	e.rearm(&off, 1)
	e.disarm(&off)
	e.disarm(&off) // disarming an unqueued event is a no-op
	moved := event{index: -1, keep: true, fn: record}
	e.At(3, func() { e.rearm(&moved, 4) })
	e.rearm(&moved, 5)
	e.rearm(&moved, 2)
	e.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Fatalf("kept event fired at %v, want [2 4]", fired)
	}
	if off.index != -1 || moved.index != -1 {
		t.Fatalf("drained kept events still indexed: %d, %d", off.index, moved.index)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	almost(t, e.Now(), 2.5, 0, "clock after RunUntil")
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full Run, want 4 events", fired)
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A deadline before now would rewind the clock and let a later At schedule
// into the past; it panics, as scheduling in the past does.
func TestRunUntilRejectsEarlierDeadline(t *testing.T) {
	e := New(1)
	e.At(5, func() {})
	e.At(10, func() {})
	e.RunUntil(6)
	mustPanic(t, "RunUntil(2) at now 6", func() { e.RunUntil(2) })
	if e.Now() != 6 {
		t.Fatalf("clock after a rejected deadline = %v, want 6", e.Now())
	}
	mustPanic(t, "At(3) at now 6", func() { e.At(3, func() {}) })
	e.RunUntil(6) // a deadline at now is fine
	if end := e.Run(); end != 10 {
		t.Fatalf("final time = %v, want 10", end)
	}
}

// No valid run produces a NaN time, and accepting one would leave the
// clock reading NaN for the rest of the run.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	e := New(1)
	mustPanic(t, "At(NaN)", func() { e.At(nan, func() {}) })
	mustPanic(t, "After(NaN)", func() { e.After(nan, func() {}) })
	mustPanic(t, "FireAfter(NaN)", func() { e.FireAfter(nan, NewDone()) })
	mustPanic(t, "RunUntil(NaN)", func() { e.RunUntil(nan) })
	kept := event{index: -1, keep: true, fn: func() {}}
	mustPanic(t, "rearm at NaN", func() { e.rearm(&kept, nan) })
	e.Spawn("sleeper", func(p *Proc) {
		mustPanic(t, "Sleep(NaN)", func() { p.Sleep(nan) })
		p.Sleep(1)
	})
	if end := e.Run(); end != 1 {
		t.Fatalf("final time = %v, want 1", end)
	}
	if len(e.events) != 0 || e.head != len(e.ready) {
		t.Fatalf("rejected times left events queued: heap %d, ready %d", len(e.events), len(e.ready)-e.head)
	}
}

// Shutdown clears the ready FIFO as well as the heap: nothing queued before
// it fires after it.
func TestShutdownClearsBothQueues(t *testing.T) {
	e := New(1)
	fired := 0
	d := NewDone()
	e.Spawn("waiter", func(p *Proc) { d.Wait(p) })
	e.At(2, func() { fired++ })
	e.RunUntil(1)
	// Between runs the caller is in engine context: an event due now goes
	// on the ready FIFO, a later one on the heap.
	e.At(1, func() { fired++ })
	e.At(2, func() { fired++ })
	if e.head == len(e.ready) || len(e.events) == 0 {
		t.Fatalf("before Shutdown: ready %d, heap %d, want both non-empty", len(e.ready)-e.head, len(e.events))
	}
	e.Shutdown()
	if len(e.ready) != 0 || e.head != 0 || len(e.events) != 0 || e.LiveProcs() != 0 {
		t.Fatalf("after Shutdown: ready %d, heap %d, live procs %d", len(e.ready)-e.head, len(e.events), e.LiveProcs())
	}
	if end := e.Run(); end != 1 || fired != 0 {
		t.Fatalf("Run after Shutdown ended at %v with %d firings, want 1 and 0", end, fired)
	}
}

// Shutdown empties every lane, a wrapped one too, and takes them off the
// engine's list: nothing queued on a lane before it fires after it, and a
// lane schedules as a new one would after it.
func TestShutdownClearsLanes(t *testing.T) {
	e := New(1)
	fired := 0
	count := func() { fired++ }
	a, b := e.NewLane(2), e.NewLane(0.5)
	a.After(count)
	e.RunUntil(1)
	a.After(count)
	e.RunUntil(2.5) // pops a's first callback: its second sits at ring slot 1
	a.After(count)  // wraps to slot 0
	b.After(count)
	if fired != 1 || a.n != 2 || a.head != 1 || b.n != 1 || e.lanes == nil {
		t.Fatalf("before Shutdown: fired %d, lane a %d queued from slot %d, lane b %d", fired, a.n, a.head, b.n)
	}
	e.Shutdown()
	if e.lanes != nil {
		t.Fatal("Shutdown left lanes on the engine's list")
	}
	for _, l := range []*Lane{a, b} {
		if l.n != 0 || l.head != 0 || l.next != nil {
			t.Fatalf("lane after Shutdown: %d queued from slot %d, next %p", l.n, l.head, l.next)
		}
		for i, ev := range l.ring {
			if ev.fn != nil {
				t.Fatalf("lane after Shutdown holds a callback in slot %d", i)
			}
		}
	}
	if end := e.Run(); end != 2.5 || fired != 1 {
		t.Fatalf("Run after Shutdown ended at %v with %d firings, want 2.5 and 1", end, fired)
	}
	b.After(count)
	if end := e.Run(); end != 3 || fired != 2 {
		t.Fatalf("lane after Shutdown: run ended at %v with %d firings, want 3 and 2", end, fired)
	}
}

func TestSpawnSleepSequence(t *testing.T) {
	e := New(1)
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		marks = append(marks, p.Now())
		p.Sleep(2)
		marks = append(marks, p.Now())
	})
	e.Run()
	if len(marks) != 2 {
		t.Fatalf("marks = %v", marks)
	}
	almost(t, marks[0], 1, 0, "first wake")
	almost(t, marks[1], 3, 0, "second wake")
}

// Sleep(0) parks a process behind everything already due now. Within an
// instant, heap events and ready-FIFO events fire in one (time, sequence
// number) order.
func TestProcYieldInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	e.Run()
	if want := []string{"a1", "b1", "a2", "b2"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	e = New(1)
	var ids []int
	log := func(id int) func() { return func() { ids = append(ids, id) } }
	e.At(1, func() {
		ids = append(ids, 1)
		e.At(1, log(4)) // ready, after 2 and 3 on the heap
		e.At(2, log(6))
	})
	e.At(1, log(2))
	e.Spawn("proc", func(p *Proc) {
		p.Sleep(1) // heap, at 1, after 2
		ids = append(ids, 3)
		p.Sleep(0) // ready, after 4
		ids = append(ids, 5)
	})
	e.Run()
	if want := []int{1, 2, 3, 4, 5, 6}; !slices.Equal(ids, want) {
		t.Fatalf("order = %v, want %v", ids, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := New(42)
		var out []float64
		for i := 0; i < 10; i++ {
			e.Spawn("p", func(p *Proc) {
				p.Sleep(p.Engine().Rand().Float64() * 10)
				out = append(out, p.Now())
			})
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New(1)
	d := NewDone()
	cleaned := false
	e.Spawn("blocked", func(p *Proc) {
		defer func() { cleaned = true }()
		d.Wait(p) // never fired
	})
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want 1 blocked", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after shutdown = %d", e.LiveProcs())
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run during shutdown")
	}
}

func TestProcFailRecordsError(t *testing.T) {
	e := New(1)
	p := e.Spawn("failing", func(p *Proc) {
		p.Sleep(1)
		p.Fail(errTest)
	})
	var got error
	e.Spawn("watcher", func(w *Proc) {
		got = WaitProcs(w, p)
	})
	e.Run()
	if got != errTest {
		t.Fatalf("WaitProcs error = %v, want errTest", got)
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

var errTest = testErr("boom")

func TestAbortUnwindsParkedProcess(t *testing.T) {
	e := New(1)
	d := NewDone()
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		d.Wait(p) // never fired
	})
	e.At(3, func() { p.Abort(errTest) })
	e.Run()
	if !p.terminated {
		t.Fatal("aborted process still live")
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run")
	}
	if p.Err() != errTest {
		t.Fatalf("err = %v", p.Err())
	}
	if !p.Done().Fired() {
		t.Fatal("done latch not fired after abort")
	}
}

func TestAbortReleasesQueueGrant(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 1)
	// holder takes the unit; victim queues; abort victim, then a third
	// process must still get the unit (no leak, no stuck FIFO entry).
	e.Spawn("holder", func(p *Proc) {
		q.Acquire(p, 1)
		p.Sleep(5)
		q.Release(1)
	})
	victim := e.Spawn("victim", func(p *Proc) {
		q.Acquire(p, 1)
		q.Release(1)
	})
	e.At(1, func() { victim.Abort(errTest) })
	var thirdAt Time = -1
	e.Spawn("third", func(p *Proc) {
		p.Sleep(2) // arrive after the victim
		q.Acquire(p, 1)
		thirdAt = p.Now()
		q.Release(1)
	})
	e.Run()
	almost(t, thirdAt, 5, 1e-9, "third process acquires when holder releases")
	if q.available != 1 {
		t.Fatalf("available = %d at end", q.available)
	}
}

// TestAbortDuringUseIsNotRecycled aborts a process in the middle of Use:
// its job must stay with the solver, be served to completion, and never be
// handed to the Use that starts next on the same resource.
func TestAbortDuringUseIsNotRecycled(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "cpu", 1, 0)
	victim := e.Spawn("victim", func(p *Proc) {
		fs.Use(p, 4)
		t.Error("aborted Use returned")
	})
	e.At(1, func() { victim.Abort(errTest) })
	var next, third Time = -1, -1
	e.Spawn("next", func(p *Proc) {
		p.Sleep(2) // the victim has unwound; its orphan has 2 units left
		// Both share the unit capacity, so this job's 1 unit is done at 4
		// and the orphan's last unit at 5.
		fs.Use(p, 1)
		next = p.Now()
		p.Sleep(2)
		fs.Use(p, 2) // reuses the record the previous Use returned
		third = p.Now()
	})
	var loadAt4, loadAt5 int
	e.At(4.5, func() { loadAt4 = fs.Load() })
	e.At(5.5, func() { loadAt5 = fs.Load() })
	e.Run()
	if victim.Err() != errTest {
		t.Fatalf("victim err = %v, want errTest", victim.Err())
	}
	almost(t, next, 4, 1e-9, "new job beside the orphan")
	if loadAt4 != 1 || loadAt5 != 0 {
		t.Fatalf("load = %d at 4.5 and %d at 5.5, want the orphan alone until 5", loadAt4, loadAt5)
	}
	almost(t, third, 8, 1e-9, "recycled job after the orphan finished")
	almost(t, fs.Served(), 7, 1e-9, "work served")
}

// TestAbortMidQueueKeepsFIFO aborts a waiter in the middle of the line: it
// is removed, and the waiters behind it are still granted in arrival order.
func TestAbortMidQueueKeepsFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 1)
	e.Spawn("holder", func(p *Proc) {
		q.Acquire(p, 1)
		p.Sleep(5)
		q.Release(1)
	})
	var got []string
	waiter := func(name string, arrive Time) *Proc {
		return e.Spawn(name, func(p *Proc) {
			p.Sleep(arrive)
			q.Acquire(p, 1)
			got = append(got, fmt.Sprintf("%s@%g", name, p.Now()))
			p.Sleep(1)
			q.Release(1)
		})
	}
	waiter("w1", 1)
	victim := waiter("victim", 2)
	waiter("w3", 3)
	waiter("w4", 4)
	line := -1
	e.At(4.5, func() { victim.Abort(errTest) })
	e.At(4.75, func() { line = len(q.waiters) - q.head })
	e.Run()
	if line != 3 {
		t.Fatalf("line holds %d waiters after the abort, want 3", line)
	}
	want := []string{"w1@5", "w3@6", "w4@7"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grants = %v, want %v", got, want)
	}
	if victim.Err() != errTest || q.available != 1 {
		t.Fatalf("victim err = %v, available = %d", victim.Err(), q.available)
	}
}

func TestAbortTerminatedProcessIsNoop(t *testing.T) {
	e := New(1)
	p := e.Spawn("quick", func(p *Proc) {})
	e.Run()
	p.Abort(errTest) // must not panic or revive
	if p.Err() != nil {
		t.Fatalf("err = %v on completed process", p.Err())
	}
}

// A panic escaping a process body must surface synchronously in engine
// context (the goroutine that called Run), not on the process goroutine
// where no recover can reach it and where the engine would keep
// executing events concurrently with the crash.
func TestProcessPanicSurfacesInEngineContext(t *testing.T) {
	e := New(1)
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	witness := 0
	e.At(5, func() { witness++ })
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || msg != `sim: process "buggy" panicked: boom` {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if witness != 0 {
			t.Fatalf("engine kept executing events after the process bug: witness=%d", witness)
		}
	}()
	e.Run()
	t.Fatal("Run returned; expected the process panic to propagate")
}

// runtime.Goexit inside a process body (what t.FailNow calls) must reach
// the goroutine that called Run, so a failed assertion in a proc fails its
// test instead of letting the engine run on without the process.
func TestProcGoexitReachesRunCaller(t *testing.T) {
	e := New(1)
	e.Spawn("fatal", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	witness := 0
	e.At(5, func() { witness++ })
	returned := make(chan bool)
	go func() {
		ran := false
		defer func() { returned <- ran }()
		e.Run()
		ran = true
	}()
	if <-returned {
		t.Fatal("Run returned after runtime.Goexit in a process body")
	}
	if witness != 0 {
		t.Fatalf("engine kept executing events after the Goexit: witness=%d", witness)
	}
}

// No carrier goroutine outlives a drained Run, nor a Shutdown that kills
// still-blocked processes.
func TestCarriersDoNotOutliveRun(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		// A finished test's runner goroutine may still be exiting.
		for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after %s, want at most %d", n, after, base)
		}
	}

	e := New(1)
	for i := 0; i < 100; i++ {
		e.Spawn("short", func(p *Proc) { p.Sleep(Time(i % 7)) })
	}
	e.Run()
	settled("a drained Run")

	e = New(1)
	d := NewDone()
	for i := 0; i < 10; i++ {
		e.Spawn("blocked", func(p *Proc) { d.Wait(p) }) // never fired
	}
	e.Run()
	if e.LiveProcs() != 10 {
		t.Fatalf("live procs = %d, want 10 blocked", e.LiveProcs())
	}
	e.Shutdown()
	settled("Shutdown")
}

// Shutdown drops the heap under a solver's kept completion event: the next
// run neither fires it nor counts any work beyond the one event it is
// given, and the solver is still usable on the same engine afterwards.
func TestShutdownDisarmsKeptEvents(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "cpu", 1, 0)
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) { fs.Use(p, 10) })
	}
	e.RunUntil(1)
	e.Shutdown()
	before := e.Stats()
	fired := false
	e.At(2, func() { fired = true })
	if end := e.Run(); end != 2 || !fired {
		t.Fatalf("run after Shutdown ended at %v, fired %v; want 2, true", end, fired)
	}
	want := before // the run pops the one event it was given, off a heap of one
	want.HeapPops++
	want.HeapLen++
	if st := e.Stats(); st != want {
		t.Fatalf("run after Shutdown touched the solver: %+v, want %+v", st, want)
	}
	done := false
	e.Spawn("again", func(p *Proc) {
		fs.Use(p, 1)
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("work submitted after Shutdown never completed")
	}
}

// After a warm-up the engine schedules, fires and recycles events without
// allocating: process sleeps, self-re-arming callbacks on the heap or on a
// lane, MaxMin completions and same-instant MaxMin starts all run at 0
// allocations, a latch wakes a waiting process or a callback waiter without
// allocating, a latch chain wakes its waiters without touching the heap, a
// spawned process that finds an idle carrier allocates only its Proc
// (nothing when SpawnInto reuses one), and FairShare's Use and Begin/End
// recycle their job records, so they allocate nothing either.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const warm = 100

	e := New(1)
	for i := 0; i < 4; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
	}
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("4-proc sleep loop: %v allocs per step, want 0", n)
	}
	e.Shutdown()

	e = New(1)
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(0, tick)
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("self-re-arming callback: %v allocs per After, want 0", n)
	}

	// The same chain on a lane: the ring, grown once, is reused in place.
	e = New(1)
	lane := e.NewLane(1)
	var laneTick func()
	laneTick = func() { lane.After(laneTick) }
	lane.After(laneTick)
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("lane After + fire: %v allocs per After, want 0", n)
	}
	if st := e.Stats(); st.LanePops != warm+101 || st.HeapPops != 0 {
		t.Fatalf("lane chain popped %d lane and %d heap events, want %d and 0", st.LanePops, st.HeapPops, warm+101)
	}

	e = New(1)
	d := NewDone()
	waits := 0
	e.Spawn("waiter", func(p *Proc) {
		for {
			d.Wait(p)
			waits++
			*d = Done{} // re-arm the one-shot latch in place
		}
	})
	e.Spawn("firer", func(p *Proc) {
		for {
			p.Sleep(1)
			d.Fire()
		}
	})
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("single-waiter latch: %v allocs per Wait+Fire, want 0", n)
	}
	if want := warm + 101; waits != want {
		t.Fatalf("latch released %d waits, want %d", waits, want)
	}
	e.Shutdown()

	// The same latch with a callback waiter, bound once, in place of the
	// process.
	e = New(1)
	d = NewDone()
	calls := 0
	var cb Callback
	register := func() {
		*d = Done{} // re-arm the one-shot latch in place
		if d.FiredOr(&cb) {
			t.Fatal("a re-armed latch reported fired")
		}
	}
	cb = NewCallback(e, func() {
		calls++
		register()
	})
	register()
	e.Spawn("firer", func(p *Proc) {
		for {
			p.Sleep(1)
			d.Fire()
		}
	})
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("single-callback latch: %v allocs per FiredOr+Fire, want 0", n)
	}
	if want := warm + 101; calls != want {
		t.Fatalf("latch ran its callback %d times, want %d", calls, want)
	}
	e.Shutdown()

	// A chain of latches fired at one instant hands off through the ready
	// FIFO: the heap only ever holds the event that starts it.
	e = New(1)
	chain := make([]Done, 8)
	e.At(1, chain[0].Fire)
	heapLens := make([]int, 0, len(chain)-1)
	for i := 1; i < len(chain); i++ {
		e.Spawn("link", func(p *Proc) {
			chain[i-1].Wait(p)
			chain[i].Fire()
			heapLens = append(heapLens, len(e.events))
		})
	}
	e.Run()
	for i, n := range heapLens {
		if n != 0 {
			t.Fatalf("latch chain: heap held %d events at link %d, want 0", n, i+1)
		}
	}
	if len(heapLens) != len(chain)-1 || e.Now() != 1 {
		t.Fatalf("latch chain: %d links released by %v, want %d by 1", len(heapLens), e.Now(), len(chain)-1)
	}

	e = New(1)
	e.At(Forever, func() {}) // a queued event keeps RunUntil from stopping the idle carrier
	short := func() {
		e.Spawn("short", func(p *Proc) {})
		e.RunUntil(e.Now() + 1)
	}
	for i := 0; i < warm; i++ {
		short()
	}
	if n := testing.AllocsPerRun(100, short); n != 1 {
		t.Errorf("spawn on an idle carrier: %v allocs per Spawn, want 1", n)
	}
	var rec Proc
	reuse := func() {
		e.SpawnInto(&rec, "short", func(p *Proc) {})
		e.RunUntil(e.Now() + 1)
	}
	if n := testing.AllocsPerRun(100, reuse); n != 0 {
		t.Errorf("spawn into a reused record: %v allocs per SpawnInto, want 0", n)
	}
	e.Shutdown()

	e = New(1)
	s := NewMaxMin(e, "gate", 1e-9, 1e-9)
	uses := []int{s.AddResource(1)}
	var a, b Activity
	var da, db Done
	completed := 0
	serve := func() {
		da, db = Done{}, Done{}
		s.Start(&a, 1, 0, uses, &da, 0)
		s.Start(&b, 2, 0, uses, &db, 0) // re-arms the queued completion event
		e.Run()
		if da.Fired() && db.Fired() {
			completed += 2
		}
	}
	for i := 0; i < warm; i++ {
		serve()
	}
	if n := testing.AllocsPerRun(100, serve); n != 0 {
		t.Errorf("MaxMin re-arm: %v allocs per serve, want 0", n)
	}
	if want := 2 * (warm + 101); completed != want {
		t.Fatalf("completed %d activities, want %d", completed, want)
	}

	// Four starts at one instant and the three completions that leave an
	// activity in service each re-rate once: seven re-rates a burst.
	e = New(1)
	s = NewMaxMin(e, "burst", 1e-9, 1e-9)
	uses = []int{s.AddResource(1)}
	var acts [4]Activity
	var dones [4]Done
	completed = 0
	burst := func() {
		for i := range acts {
			dones[i] = Done{}
			s.Start(&acts[i], float64(i+1), 0, uses, &dones[i], 0)
		}
		e.Run()
		for i := range dones {
			if dones[i].Fired() {
				completed++
			}
		}
	}
	for i := 0; i < warm; i++ {
		burst()
	}
	before := e.Stats()
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Errorf("MaxMin same-instant starts: %v allocs per burst, want 0", n)
	}
	if want := 4 * (warm + 101); completed != want {
		t.Fatalf("completed %d activities, want %d", completed, want)
	}
	if n := e.Stats().Rerates - before.Rerates; n != 7*101 {
		t.Fatalf("101 bursts: %d re-rates, want %d", n, 7*101)
	}

	// Use recycles its job records, so a blocking quantum allocates nothing.
	e = New(1)
	fs := NewFairShare(e, "cpu", 2, 1)
	served := 0
	for i := 0; i < 2; i++ {
		e.Spawn("user", func(p *Proc) {
			for {
				fs.Use(p, 1)
				served++
			}
		})
	}
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("FairShare Use: %v allocs per step of two quanta, want 0", n)
	}
	if want := 2 * (warm + 101); served != want {
		t.Fatalf("served %d quanta, want %d", served, want)
	}
	e.Shutdown()

	// Begin and End share Use's free list: work overlapped with a sleep
	// allocates nothing either.
	e = New(1)
	fs = NewFairShare(e, "disk", 2, 0)
	served = 0
	for i := 0; i < 2; i++ {
		e.Spawn("user", func(p *Proc) {
			for {
				j := fs.Begin(1)
				p.Sleep(0.5)
				fs.End(p, j)
				served++
			}
		})
	}
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("FairShare Begin+End: %v allocs per step of two jobs, want 0", n)
	}
	if want := 2 * (warm + 101); served != want {
		t.Fatalf("served %d jobs, want %d", served, want)
	}
	e.Shutdown()

	// Three procs contend for one unit, so two of them are always in line.
	e = New(1)
	q := NewQueue(e, 1)
	grants := 0
	for i := 0; i < 3; i++ {
		e.Spawn("contender", func(p *Proc) {
			for {
				q.Acquire(p, 1)
				grants++
				p.Sleep(1)
				q.Release(1)
			}
		})
	}
	e.RunUntil(warm)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Errorf("contended Queue: %v allocs per Acquire+Release cycle, want 0", n)
	}
	if want := warm + 102; grants != want { // one grant at each t = 0, 1, …, warm+101
		t.Fatalf("queue granted %d times, want %d", grants, want)
	}
	e.Shutdown()
}
