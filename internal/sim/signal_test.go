package sim

import "testing"

func TestDoneReleasesWaiters(t *testing.T) {
	e := New(1)
	d := NewDone()
	var woke []Time
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			d.Wait(p)
			woke = append(woke, p.Now())
			order = append(order, i)
		})
	}
	e.At(5, func() { d.Fire() })
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v, want 3 waiters", woke)
	}
	for _, w := range woke {
		almost(t, w, 5, 0, "wake time")
	}
	// The inline first waiter wakes first, the queued rest in Wait order.
	for i, w := range order {
		if w != i {
			t.Fatalf("wake order = %v, want waiters in Wait order", order)
		}
	}
	if !d.Fired() {
		t.Fatal("latch not marked fired")
	}
}

func TestDoneWaitAfterFireReturnsImmediately(t *testing.T) {
	e := New(1)
	d := NewDone()
	d.Fire()
	d.Fire() // idempotent
	var at Time = -1
	e.Spawn("late", func(p *Proc) {
		p.Sleep(2)
		d.Wait(p)
		at = p.Now()
	})
	e.Run()
	almost(t, at, 2, 0, "no extra delay waiting on fired latch")
}

func TestWaitAll(t *testing.T) {
	e := New(1)
	d1, d2 := NewDone(), NewDone()
	e.At(3, func() { d1.Fire() })
	e.At(7, func() { d2.Fire() })
	var at Time
	e.Spawn("joiner", func(p *Proc) {
		WaitAll(p, d1, d2)
		at = p.Now()
	})
	e.Run()
	almost(t, at, 7, 0, "WaitAll completes at the latest latch")
}

func TestGatePausesWaiters(t *testing.T) {
	e := New(1)
	g := NewGate(e, false)
	var at Time = -1
	e.Spawn("gated", func(p *Proc) {
		g.WaitOpen(p)
		at = p.Now()
	})
	e.At(4, func() { g.Open() })
	e.Run()
	almost(t, at, 4, 0, "gated proc wake")
}

func TestGateOpenIsImmediate(t *testing.T) {
	e := New(1)
	g := NewGate(e, true)
	var at Time = -1
	e.Spawn("free", func(p *Proc) {
		g.WaitOpen(p)
		at = p.Now()
	})
	e.Run()
	almost(t, at, 0, 0, "open gate does not block")
}

func TestGateReclose(t *testing.T) {
	e := New(1)
	g := NewGate(e, true)
	var passes []Time
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			g.WaitOpen(p)
			passes = append(passes, p.Now())
			p.Sleep(1)
		}
	})
	e.At(0.5, func() { g.Close() })
	e.At(2.5, func() { g.Open() })
	e.Run()
	// Pass 1 at t=0 (gate open), pass 2 blocked at t=1 until 2.5, pass 3 at 3.5.
	if len(passes) != 3 {
		t.Fatalf("passes = %v", passes)
	}
	almost(t, passes[0], 0, 0, "pass 1")
	almost(t, passes[1], 2.5, 0, "pass 2")
	almost(t, passes[2], 3.5, 0, "pass 3")
}
