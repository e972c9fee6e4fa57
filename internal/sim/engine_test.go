package sim

import (
	"math"
	"testing"
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

func TestSpawnAfterDelaysStart(t *testing.T) {
	e := New(1)
	var started Time = -1
	e.SpawnAfter(4, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	almost(t, started, 4, 0, "delayed start")
}

func TestProcYieldInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Yield()
		order = append(order, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
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
	d := NewDone(e)
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

func TestStopAndResume(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(1, func() { fired = append(fired, 1); e.Stop() })
	e.At(2, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want just the event at t=1", fired)
	}
	e.Resume()
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v after resume", fired)
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
	d := NewDone(e)
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		d.Wait(p) // never fired
	})
	e.At(3, func() { p.Abort(errTest) })
	e.Run()
	if !p.Terminated() {
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
	if q.Available() != 1 {
		t.Fatalf("available = %d at end", q.Available())
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

// Shutdown drops the heap under a solver's kept completion event; the solver
// must still be usable on the same engine afterwards.
func TestShutdownDisarmsKeptEvents(t *testing.T) {
	e := New(1)
	fs := NewFairShare(e, "cpu", 1, 0)
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) { fs.Use(p, 10) })
	}
	e.RunUntil(1)
	e.Shutdown()
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
// allocating: process sleeps, self-re-arming callbacks and MaxMin
// completions all run at 0 allocations.
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

	e = New(1)
	s := NewMaxMin(e, "gate", 1e-9, 1e-9)
	uses := []int{s.AddResource(1)}
	var a, b Activity
	completed := 0
	done := func() { completed++ }
	serve := func() {
		s.Start(&a, 1, 0, uses, done)
		s.Start(&b, 2, 0, uses, done) // re-arms the queued completion event
		e.Run()
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
}
