package sim

import "testing"

func TestQueueBasicAcquireRelease(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 2)
	var order []string
	worker := func(name string, hold Time) {
		e.Spawn(name, func(p *Proc) {
			q.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			q.Release(1)
			order = append(order, name+"-")
		})
	}
	worker("a", 2)
	worker("b", 2)
	worker("c", 2) // must wait for a slot
	e.Run()
	if q.available != 2 {
		t.Fatalf("available = %d after all released", q.available)
	}
	// At t=2, a's wake event precedes b's, and c's grant event (created by
	// a's release) lands after b's pre-existing wake event.
	want := []string{"a+", "b+", "a-", "b-", "c+", "c-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueFIFONoStarvation(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 4)
	var got []string
	e.Spawn("hog", func(p *Proc) {
		q.Acquire(p, 4)
		got = append(got, "hog")
		p.Sleep(1)
		q.Release(4)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(0.1) // arrive second
		q.Acquire(p, 3)
		got = append(got, "big")
		q.Release(3)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(0.2) // arrive third; must NOT jump ahead of big
		q.Acquire(p, 1)
		got = append(got, "small")
		q.Release(1)
	})
	e.Run()
	want := []string{"hog", "big", "small"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO violated)", got, want)
		}
	}
}

func TestQueueOverReleasePanics(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	q.Release(1)
}

// FuzzQueue waiter states.
const (
	fqIdle    = iota // not yet arrived
	fqWaiting        // inside Acquire
	fqGranted        // Acquire returned
	fqRemoved        // unwound out of Acquire by an abort
)

// FuzzQueue drives a Queue of random capacity with processes that arrive at
// random times, acquire random sizes, hold them for random times and
// release them, while random aborts land on waiters and holders alike.
// Times are multiples of 0.5, so arrivals, releases and aborts often share
// an instant. It checks that grants are FIFO (no waiter returns from
// Acquire while an earlier arrival is still in line), that 0 <= available
// <= capacity at all times, that no waiter at the head of the line fits the
// free units (also just after an aborted waiter has left it), that every
// waiter is granted exactly once or removed, and that the queue drains to
// empty and fully available.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := New(1)
		capacity := 1 + int(data[0]%8)
		q := NewQueue(e, capacity)
		held := 0
		check := func(what string) {
			if a := q.available; a < 0 || a > capacity || held > capacity-a {
				t.Errorf("%s at %v: available %d, held %d, capacity %d", what, e.Now(), a, held, capacity)
			}
			if q.head < len(q.waiters) && q.waiters[q.head].n <= q.available {
				t.Errorf("%s at %v: the head of the line waits for %d of %d free units", what, e.Now(), q.waiters[q.head].n, q.available)
			}
		}
		var procs []*Proc
		var state []int
		var arrivals []*Proc
		for i := 1; i+2 < len(data); i += 3 {
			op, at, arg := data[i]%4, Time(data[i+1]%16)/2, int(data[i+2])
			if op == 3 {
				if len(procs) > 0 {
					victim := procs[arg%len(procs)]
					e.At(at, func() {
						victim.Abort(errTest)
						check("abort")
					})
				}
				continue
			}
			k, n, hold := len(procs), 1+arg%capacity, Time(arg>>4%8)/2
			state = append(state, fqIdle)
			procs = append(procs, e.Spawn("w", func(p *Proc) {
				p.Sleep(at)
				state[k] = fqWaiting
				arrivals = append(arrivals, p)
				defer func() {
					if state[k] == fqWaiting {
						state[k] = fqRemoved
						if !q.granted(p) {
							t.Errorf("waiter %d unwound but is still in line", k)
						}
						check("removal")
					}
				}()
				q.Acquire(p, n)
				state[k] = fqGranted
				held += n
				check("grant")
				for _, w := range arrivals {
					if w == p {
						break
					}
					if !q.granted(w) {
						t.Errorf("waiter %d granted at %v ahead of an earlier arrival", k, e.Now())
					}
				}
				defer func() {
					held -= n
					q.Release(n)
					check("release")
				}()
				p.Sleep(hold)
			}))
		}
		e.Run()
		for k, p := range procs {
			switch {
			case !p.terminated:
				t.Fatalf("waiter %d (state %d) never finished: lost wakeup", k, state[k])
			case state[k] == fqWaiting:
				t.Fatalf("waiter %d terminated inside Acquire", k)
			case state[k] != fqGranted && p.Err() != errTest:
				t.Fatalf("waiter %d not granted (state %d) and not aborted", k, state[k])
			}
		}
		if q.head != len(q.waiters) || q.available != capacity || held != 0 {
			t.Fatalf("drained queue: %d in line, available %d of %d, held %d", len(q.waiters)-q.head, q.available, capacity, held)
		}
		e.Shutdown()
	})
}

// TestQueueAbortedHeadGrantsTheLine aborts the head of a line that a grant
// could not reach: with 1 of 2 units held until t=10, B waits for 2 and C,
// behind it, for 1. Once B is aborted at t=1 the free unit fits C, so C is
// granted then, not at A's release.
func TestQueueAbortedHeadGrantsTheLine(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 2)
	e.Spawn("A", func(p *Proc) {
		q.Acquire(p, 1)
		p.Sleep(10)
		q.Release(1)
	})
	b := e.Spawn("B", func(p *Proc) {
		p.Sleep(0.5)
		q.Acquire(p, 2)
		q.Release(2)
	})
	granted := Time(-1)
	e.Spawn("C", func(p *Proc) {
		p.Sleep(0.6)
		q.Acquire(p, 1)
		granted = p.Now()
		q.Release(1)
	})
	e.At(1, func() { b.Abort(errTest) })
	e.Run()
	if b.Err() != errTest {
		t.Fatalf("B ended with %v, want the abort", b.Err())
	}
	if granted != 1 {
		t.Fatalf("C granted at %v, want 1, when B's abort freed the line", granted)
	}
}
