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

// latchPass is one waiter's release from a latch: who, and when.
type latchPass struct {
	id int
	at Time
}

// waitLatchProc spawns a process that waits on d from time at and logs its
// release.
func waitLatchProc(e *Engine, d *Done, id int, at Time, log *[]latchPass) {
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(at)
		d.Wait(p)
		*log = append(*log, latchPass{id, p.Now()})
	})
}

// waitLatchCallback registers id on d as a callback waiter at the current
// time and logs its release: at once if d has fired, else when fn runs.
func waitLatchCallback(e *Engine, d *Done, id int, log *[]latchPass) {
	cb := NewCallback(e, func() { *log = append(*log, latchPass{id, e.Now()}) })
	if d.FiredOr(&cb) {
		cb.fn()
	}
}

func TestDoneRunsMixedWaitersInOrder(t *testing.T) {
	e := New(1)
	d := NewDone()
	var log []latchPass
	for id := 0; id < 6; id++ {
		at := Time(id+1) / 10
		if id%2 == 1 {
			waitLatchProc(e, d, id, at, &log)
		} else {
			e.At(at, func() { waitLatchCallback(e, d, id, &log) })
		}
	}
	drawn := uint64(0)
	e.At(2, func() {
		seq := e.seq
		d.Fire()
		drawn = e.seq - seq
		// Drawn after the fire, this event runs after every woken waiter.
		e.At(2, func() { log = append(log, latchPass{-1, e.Now()}) })
	})
	e.Run()
	if drawn != 6 {
		t.Fatalf("Fire drew %d events for 6 waiters, want one each", drawn)
	}
	if len(log) != 7 {
		t.Fatalf("passes = %v, want each of 6 waiters once, then the marker", log)
	}
	for i, ps := range log[:6] {
		if ps.id != i || ps.at != 2 {
			t.Fatalf("passes = %v, want waiters 0..5 in registration order at the fire time 2", log)
		}
	}
	if log[6].id != -1 {
		t.Fatalf("passes = %v, want the marker drawn after the fire last", log)
	}
	// A callback registered on a fired latch is not queued.
	late := NewCallback(e, func() { t.Fatal("callback queued on a fired latch ran") })
	if !d.FiredOr(&late) {
		t.Fatal("FiredOr on a fired latch reported false")
	}
	e.Run()
}

// FuzzDone drives a latch through random Fire calls, in-place re-arms of a
// fired latch, Wait and callback registrations, one per instant, and checks
// the releases against a reference that keeps one list of waiters: a
// registration on a fired latch passes at once, and a Fire passes the whole
// list, in registration order, at the fire time.
func FuzzDone(f *testing.F) {
	f.Add([]byte{2, 3, 2, 0, 3, 1, 3, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(1)
		d := NewDone()
		fired := false
		var got, want []latchPass
		var waiting []int
		for i, b := range data {
			at := Time(i + 1)
			switch b % 4 {
			case 0:
				e.At(at, d.Fire)
				if !fired {
					for _, id := range waiting {
						want = append(want, latchPass{id, at})
					}
					waiting, fired = nil, true
				}
			case 1:
				e.At(at, func() {
					if d.Fired() {
						*d = Done{}
					}
				})
				fired = false
			case 2, 3:
				if b%4 == 2 {
					waitLatchProc(e, d, i, at, &got)
				} else {
					e.At(at, func() { waitLatchCallback(e, d, i, &got) })
				}
				if fired {
					want = append(want, latchPass{i, at})
				} else {
					waiting = append(waiting, i)
				}
			}
		}
		e.Run()
		e.Shutdown()
		if len(got) != len(want) {
			t.Fatalf("passes = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("passes = %v, want %v", got, want)
			}
		}
	})
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

// gatePass records one waiter getting through a gate.
type gatePass struct {
	id int
	at Time
}

// waitCallback registers id on g as a callback waiter at the current time,
// retrying as WaitOpen's loop does, and logs its pass.
func waitCallback(e *Engine, g *Gate, id int, log *[]gatePass) {
	var fn func()
	fn = func() {
		if g.OpenOr(fn) {
			*log = append(*log, gatePass{id, e.Now()})
		}
	}
	fn()
}

// waitProc spawns a process that waits on g at time at and logs its pass.
func waitProc(e *Engine, g *Gate, id int, at Time, log *[]gatePass) {
	e.Spawn("gated", func(p *Proc) {
		p.Sleep(at)
		g.WaitOpen(p)
		*log = append(*log, gatePass{id, p.Now()})
	})
}

func TestGateOpenRunsMixedWaitersInOrder(t *testing.T) {
	e := New(1)
	g := NewGate(e, false)
	var log []gatePass
	for id := 0; id < 6; id++ {
		at := Time(id+1) / 10
		if id%2 == 0 {
			waitProc(e, g, id, at, &log)
		} else {
			e.At(at, func() { waitCallback(e, g, id, &log) })
		}
	}
	e.At(2, func() { g.Open() })
	e.Run()
	if len(log) != 6 {
		t.Fatalf("passes = %v, want each of 6 waiters once", log)
	}
	for i, ps := range log {
		if ps.id != i || ps.at != 2 {
			t.Fatalf("passes = %v, want waiters 0..5 in registration order at the open time 2", log)
		}
	}
}

func TestGateRecloseRequeuesMixedWaiters(t *testing.T) {
	e := New(1)
	g := NewGate(e, false)
	var log []gatePass
	waitProc(e, g, 0, 0.1, &log)
	e.At(0.2, func() { waitCallback(e, g, 1, &log) })
	waitProc(e, g, 2, 0.3, &log)
	// Both waiters are woken at 1 but find the gate closed again, so they
	// queue again, in the same order, for the open at 3.
	e.At(1, func() {
		g.Open()
		g.Close()
	})
	e.At(3, func() { g.Open() })
	e.Run()
	want := []gatePass{{0, 3}, {1, 3}, {2, 3}}
	if len(log) != len(want) {
		t.Fatalf("passes = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("passes = %v, want %v", log, want)
		}
	}
}

// FuzzGate drives a gate through random Close, Open, Open-then-Close,
// WaitOpen and callback registrations, one per instant, and checks the
// passes against a reference that keeps a single list of waiters: a
// registration on an open gate passes at once, and an Open passes the whole
// list, in registration order, at the open time. An Open closed again in
// the same instant passes nobody and keeps the list's order.
func FuzzGate(f *testing.F) {
	f.Add([]byte{0, 2, 3, 2, 4, 3, 1, 0, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := New(1)
		open := data[0]&1 == 1
		g := NewGate(e, open)
		var got, want []gatePass
		var waiting []int
		for i, b := range data[1:] {
			at := Time(i + 1)
			switch b % 5 {
			case 0:
				e.At(at, g.Close)
				open = false
			case 1:
				e.At(at, g.Open)
				if !open {
					for _, id := range waiting {
						want = append(want, gatePass{id, at})
					}
					waiting, open = nil, true
				}
			case 2, 3:
				if b%5 == 2 {
					waitProc(e, g, i, at, &got)
				} else {
					e.At(at, func() { waitCallback(e, g, i, &got) })
				}
				if open {
					want = append(want, gatePass{i, at})
				} else {
					waiting = append(waiting, i)
				}
			case 4:
				e.At(at, func() {
					g.Open()
					g.Close()
				})
				open = false
			}
		}
		e.Run()
		e.Shutdown()
		if len(got) != len(want) {
			t.Fatalf("passes = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("passes = %v, want %v", got, want)
			}
		}
	})
}
