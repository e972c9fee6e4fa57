package sim

import "testing"

// spawnPanics reports whether SpawnInto refuses the record rec.
func spawnPanics(e *Engine, rec *Proc) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	e.SpawnInto(rec, "refused", func(*Proc) {})
	return false
}

// fsGen is one process FuzzSpawnInto started in a pooled record, as the
// test models it.
type fsGen struct {
	ended   bool // its body returned or unwound
	failed  bool // it called Fail
	aborted bool // Abort reached it before it ended
	killed  bool // Shutdown unwound it
}

// FuzzSpawnInto reuses a small pool of process records through SpawnInto.
// Each op is three bytes: kind, time and argument. Spawns go into the
// record the argument names; the bodies sleep, wait on one of two latches,
// wait on a gate, hold a FIFO semaphore, fail, or return without parking.
// Other ops fire a latch, open or close the gate, or start a process that
// aborts the named record's process at that instant (a no-op once it has
// ended, and skipped for a record that never ran one).
//
// The test keeps its own model of each record's last process. SpawnInto
// must start a process in a record that is fresh or whose process ended
// without failing and was never aborted, and must panic on any other: a
// live one, an aborted or failed one, and after Shutdown a killed one. A
// refused record that has ended is dropped and replaced with a fresh one,
// as an owner does. Every body checks that it resumes only when its own
// wait is satisfied: Sleep(d) returns at exactly start+d, a latch wait
// only after that latch fired, a gate wait only while the gate is open. A
// record reused while a latch, gate or timer still names its aborted
// process would be woken early by it.
func FuzzSpawnInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := New(1)
		pool := make([]*Proc, 1+int(data[0]%4))
		gens := make([]*fsGen, len(pool))
		for i := range pool {
			pool[i] = new(Proc)
		}
		var latches [2]Done
		var fired [2]bool
		gate, gateOpen := NewGate(e, true), true
		q := NewQueue(e, 1)

		// sleep checks that Sleep(d) returns at exactly start+d.
		sleep := func(p *Proc, d Time, what string) {
			start := p.Now()
			p.Sleep(d)
			if p.Now() != start+d {
				t.Errorf("%s: Sleep(%v) from %v returned at %v", what, d, start, p.Now())
			}
		}
		// spawn starts body in the named record, or checks that SpawnInto
		// refuses it.
		spawn := func(r int, body func(p *Proc, g *fsGen)) {
			rec, g := pool[r], gens[r]
			if g != nil && (!g.ended || g.failed || g.aborted) {
				if !spawnPanics(e, rec) {
					t.Fatalf("SpawnInto accepted record %d at %v: %+v", r, e.Now(), *g)
				}
				if g.ended {
					pool[r], gens[r] = new(Proc), nil
				}
				return
			}
			if g != nil && !rec.Reusable() {
				t.Fatalf("record %d ended cleanly but is not Reusable", r)
			}
			g = new(fsGen)
			gens[r] = g
			e.SpawnInto(rec, "pooled", func(p *Proc) {
				defer func() { g.ended = true }()
				body(p, g)
			})
		}

		for i := 1; i+2 < len(data); i += 3 {
			op, at, arg := data[i]%8, Time(data[i+1]%16)/2, int(data[i+2])
			r, d := arg%len(pool), Time(arg>>2%4)/2
			var act func()
			switch op {
			case 0:
				act = func() { spawn(r, func(p *Proc, _ *fsGen) { sleep(p, d, "sleeper") }) }
			case 1:
				j := arg >> 4 % 2
				act = func() {
					spawn(r, func(p *Proc, _ *fsGen) {
						latches[j].Wait(p)
						if !fired[j] {
							t.Errorf("latch %d wait returned at %v before the latch fired", j, p.Now())
						}
						sleep(p, d, "latch waiter")
					})
				}
			case 2:
				act = func() {
					spawn(r, func(p *Proc, _ *fsGen) {
						gate.WaitOpen(p)
						if !gateOpen {
							t.Errorf("gate wait returned at %v while the gate is closed", p.Now())
						}
						sleep(p, d, "gate waiter")
					})
				}
			case 3:
				act = func() {
					spawn(r, func(p *Proc, _ *fsGen) {
						q.Acquire(p, 1)
						defer q.Release(1)
						sleep(p, d, "holder")
					})
				}
			case 4:
				act = func() {
					spawn(r, func(p *Proc, g *fsGen) {
						if arg&0x10 != 0 {
							g.failed = true
							p.Fail(errTest)
						}
					})
				}
			case 5:
				j := arg >> 4 % 2
				act = func() {
					fired[j] = true
					latches[j].Fire()
				}
			case 6:
				open := arg&0x10 != 0
				act = func() {
					gateOpen = open
					if open {
						gate.Open()
					} else {
						gate.Close()
					}
				}
			case 7:
				e.Spawn("aborter", func(p *Proc) {
					p.Sleep(at)
					// An owner aborts only a process it started.
					if g := gens[r]; g != nil {
						if !g.ended {
							g.aborted = true
						}
						pool[r].Abort(errTest)
					}
				})
				continue
			}
			e.At(at, act)
		}
		e.Run()

		for r, g := range gens {
			switch {
			case g == nil:
			case !g.ended:
				// Parked for good: on a latch never fired or a gate left
				// closed.
				if !spawnPanics(e, pool[r]) {
					t.Fatalf("SpawnInto accepted the live record %d", r)
				}
				g.killed = true
			case (g.failed || g.aborted) != (pool[r].Err() != nil):
				t.Fatalf("record %d: model %+v, Err %v", r, *g, pool[r].Err())
			}
		}
		e.Shutdown()
		for r, g := range gens {
			if g != nil && g.killed && !spawnPanics(e, pool[r]) {
				t.Fatalf("SpawnInto accepted the killed record %d", r)
			}
		}
	})
}
